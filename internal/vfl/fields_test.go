package vfl

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vfps/internal/wire"
)

// reservedTags lists each message's retired tags. A retired tag is never
// bound again, so a peer that still sends it is skipped like any unknown tag.
var reservedTags = map[string]map[int]string{
	"PublicKeyResp":           retiredKeyParams,
	"PrivateKeyResp":          retiredKeyParams,
	"EncryptAllReq":           {3: "retired delta flag"},
	"EncryptCandidatesReq":    {4: "retired delta flag"},
	"AggregateCandidatesReq":  {3: "retired adaptive flag", 4: "retired delta flag"},
	"AggregateCandidatesResp": {5: "retired leader-link delta"},
	"CollectAllReq":           {2: "retired chunk size", 3: "retired adaptive flag", 4: "retired delta flag"},
	"CollectAllResp":          {6: "retired leader-link delta", 7: "retired chunk-framed blocks"},
	"FaginCollectReq":         {4: "retired chunk size", 5: "retired adaptive flag", 6: "retired delta flag"},
	"FaginCollectResp":        {7: "retired leader-link delta", 8: "retired chunk-framed blocks"},
}

// retiredKeyParams are the key responses' tags that carried the retired
// secagg and dp parameters: consortium size, mask or noise seed, ε and δ.
var retiredKeyParams = map[int]string{3: "retired secagg consortium size", 4: "retired mask/noise seed",
	5: "retired dp epsilon", 6: "retired dp delta"}

// tableMessages returns one instance of every message type allMessages()
// reaches, nested messages included, in first-seen order.
func tableMessages() []wire.Message {
	var out []wire.Message
	seen := map[reflect.Type]bool{}
	var visit func(m wire.Message)
	visit = func(m wire.Message) {
		if seen[reflect.TypeOf(m)] {
			return
		}
		seen[reflect.TypeOf(m)] = true
		out = append(out, m)
		for _, b := range wire.Layout(m) {
			if b.Kind == "msg" {
				visit(b.Ptr.(wire.Message))
			}
		}
	}
	for _, m := range allMessages() {
		visit(m)
	}
	return out
}

func messageName(m wire.Message) string { return reflect.TypeOf(m).Elem().Name() }

// boundField returns the exported field of m whose address b binds.
func boundField(m wire.Message, b wire.Binding) (reflect.StructField, bool) {
	v := reflect.ValueOf(m).Elem()
	p := reflect.ValueOf(b.Ptr)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.IsExported() && v.Field(i).Addr().Pointer() == p.Pointer() && p.Type().Elem().ConvertibleTo(f.Type) {
			return f, true
		}
	}
	return reflect.StructField{}, false
}

// TestFieldTables checks every field table: tags unique, ascending, below
// wire.TraceTag and clear of the reserved ones, and every exported field
// bound exactly once (by address). Every type in messages.go that declares a
// table must be reachable from allMessages(), directly or nested.
func TestFieldTables(t *testing.T) {
	reached := map[string]bool{}
	for _, m := range tableMessages() {
		name := messageName(m)
		reached[name] = true
		bound := map[string]int{}
		prev := 0
		for _, b := range wire.Layout(m) {
			if b.Tag <= prev {
				t.Errorf("%s: tag %d follows tag %d; tags must be unique and ascending", name, b.Tag, prev)
			}
			prev = b.Tag
			if b.Tag >= wire.TraceTag {
				t.Errorf("%s: tag %d is not below wire.TraceTag (%d)", name, b.Tag, wire.TraceTag)
			}
			if why, ok := reservedTags[name][b.Tag]; ok {
				t.Errorf("%s: tag %d is reserved (%s) and must not be bound again", name, b.Tag, why)
			}
			f, ok := boundField(m, b)
			if !ok {
				t.Errorf("%s: tag %d binds no exported field of the message", name, b.Tag)
				continue
			}
			bound[f.Name]++
		}
		typ := reflect.TypeOf(m).Elem()
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && bound[f.Name] != 1 {
				t.Errorf("%s.%s is bound %d times, want exactly once", name, f.Name, bound[f.Name])
			}
		}
	}
	file, err := parser.ParseFile(token.NewFileSet(), "messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "Fields" {
			continue
		}
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && !reached[id.Name] {
			t.Errorf("%s declares a field table but allMessages() does not reach it", id.Name)
		}
	}
}

// tagTableDoc holds the tag table rendered from the field tables.
const tagTableDoc = "../../docs/wire_tags.md"

var tagTableHeader = strings.Join([]string{
	"# v1 wire tags",
	"",
	"The v1 field layout of every protocol message (DESIGN.md §10), rendered",
	"from the field tables in `internal/vfl/messages.go` by",
	"`TestTagTableDocumented`, which fails and prints the new version when this",
	"file drifts from them. Kinds `int`, `int64` and `bool` are zigzag varints",
	"(wire type 0; a set `bool` is the varint 1), `float64` is fixed64 (wire",
	"type 1), and `string`, `bytes`, `ids` (delta-coded pseudo-ID list), `blobs`",
	"(length-prefixed blob list) and `msg` (nested message) are",
	"length-delimited (wire type 2). Zero values are omitted. A reserved tag",
	"belonged to a retired field and is never bound again. `wireRaw` is",
	"`costmodel.Raw`'s layout. Tag 2000 (`wire.TraceTag`) carries trace",
	"context on any request, and tag 2001 (`wire.CostTag`) a `wireRaw`",
	"trailer on every role's response: what serving that call cost.",
	"",
	"| message | tag | field | kind |",
	"|---|---|---|---|",
	"",
}, "\n")

// renderTagTable renders docs/wire_tags.md from the field tables.
func renderTagTable() string {
	var sb strings.Builder
	sb.WriteString(tagTableHeader)
	for _, m := range tableMessages() {
		name := messageName(m)
		rows := map[int]string{}
		var tags []int
		for _, b := range wire.Layout(m) {
			f, _ := boundField(m, b)
			rows[b.Tag] = fmt.Sprintf("`%s` | %s", f.Name, b.Kind)
			tags = append(tags, b.Tag)
		}
		for tag, why := range reservedTags[name] {
			rows[tag] = "*reserved* | " + why
			tags = append(tags, tag)
		}
		slices.Sort(tags)
		for i, tag := range tags {
			label := ""
			if i == 0 {
				label = "`" + name + "`"
			}
			fmt.Fprintf(&sb, "| %s | %d | %s |\n", label, tag, rows[tag])
		}
	}
	return sb.String()
}

// TestTagTableDocumented fails when docs/wire_tags.md differs from the tag
// table rendered from the field tables, and prints the rendered file.
func TestTagTableDocumented(t *testing.T) {
	want := renderTagTable()
	if got, err := os.ReadFile(tagTableDoc); err != nil || string(got) != want {
		t.Errorf("%s is out of date (%v); rendered from the field tables it reads:\n\n%s", tagTableDoc, err, want)
	}
}

// goldenVectors extracts the hex vectors of TestGoldenVectors from
// golden_test.go, so the fuzz seeds follow the vectors without a copy.
func goldenVectors(tb testing.TB) [][]byte {
	file, err := parser.ParseFile(token.NewFileSet(), "golden_test.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "TestGoldenVectors" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				if raw, err := hex.DecodeString(s); err == nil && len(raw) >= 2 {
					out = append(out, raw)
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		tb.Fatal("no hex vectors found in TestGoldenVectors")
	}
	return out
}

// FuzzMessages drives wire.Unmarshal of every message type with arbitrary
// bytes: no input may panic a decoder, and whatever decodes must re-encode to
// a fixed point (decode → encode → decode → encode yields the same bytes).
func FuzzMessages(f *testing.F) {
	for _, raw := range goldenVectors(f) {
		f.Add(raw)
	}
	var types []reflect.Type
	for _, m := range allMessages() {
		raw, _ := wire.Marshal(m)
		f.Add(raw)
	}
	for _, m := range tableMessages() {
		types = append(types, reflect.TypeOf(m).Elem())
	}
	f.Add(gobBlob)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range types {
			m := reflect.New(typ).Interface().(wire.Message)
			if wire.Unmarshal(data, m) != nil {
				continue
			}
			once, _ := wire.Marshal(m)
			back := reflect.New(typ).Interface().(wire.Message)
			if err := wire.Unmarshal(once, back); err != nil {
				t.Fatalf("%s: decoding its own encoding %x: %v", typ.Name(), once, err)
			}
			if twice, _ := wire.Marshal(back); !bytes.Equal(once, twice) {
				t.Fatalf("%s: re-encoding is not a fixed point: %x, then %x", typ.Name(), once, twice)
			}
		}
	})
}

// TestWireAllocs pins the allocations of one wire.Marshal and one
// wire.Unmarshal, the decoded message included: a field-table walk allocates
// nothing beyond its own state, and a party answers ~1 050 rank calls per
// rows_plain selection. The limits are the counts of the hand-written
// methods the tables replaced.
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ids := make([]int, 32)
	for i := range ids {
		ids[i] = i
	}
	for _, c := range []struct {
		msg                wire.Message
		marshal, unmarshal float64
	}{
		{&RankingBatchReq{Query: 3, Offset: 64, Count: 32}, 2, 2},
		{&RankingBatchResp{PseudoIDs: ids}, 3, 3},
		{&FaginCollectResp{PseudoIDs: []int{3, 1}, Aggregated: [][]byte{{4}}, PackFactor: 2,
			Stats: FaginStats{Rounds: 2, ScanDepth: 64, Candidates: 9}, PackBits: 40, PackAdds: 4}, 5, 6},
	} {
		raw, _ := wire.Marshal(c.msg)
		typ := reflect.TypeOf(c.msg).Elem()
		if n := testing.AllocsPerRun(1000, func() { wire.Marshal(c.msg) }); n > c.marshal {
			t.Errorf("wire.Marshal(%s) allocates %.0f times, want at most %.0f", typ.Name(), n, c.marshal)
		}
		if n := testing.AllocsPerRun(1000, func() {
			if err := wire.Unmarshal(raw, reflect.New(typ).Interface().(wire.Message)); err != nil {
				t.Fatal(err)
			}
		}); n > c.unmarshal {
			t.Errorf("wire.Unmarshal(%s) allocates %.0f times, want at most %.0f", typ.Name(), n, c.unmarshal)
		}
	}
}
