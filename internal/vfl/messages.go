// Package vfl implements the vertical-federated-learning runtime of the
// paper's §IV: the three system roles (key server, aggregation server,
// participants with one leader), the vertical KNN oracle in both the
// baseline variant (encrypt all N partial distances per query) and the
// Fagin-optimized variant (encrypt candidates only), pseudo-ID shuffling for
// identity security, and per-role operation accounting for the cost model.
//
// Message flow per query q (optimized variant, Fig. 3):
//
//	leader ──FaginCollect──▶ aggregation server
//	   agg ──RankingBatch──▶ each participant   (Step ①–②, mini-batches)
//	   agg runs Fagin until k ids seen in all lists (Step ③)
//	   agg ──EncryptCandidates──▶ each participant (Step ④)
//	   agg homomorphically sums the candidate ciphertexts (Step ⑤)
//	leader decrypts candidate totals, picks the k nearest T (Step ⑥)
//	leader ──NeighborSum(T)──▶ each participant (Step ⑦)
//	leader computes w_q(p1,p2) from the returned d^p_T (Step ⑧)
package vfl

import (
	"vfps/internal/costmodel"
	"vfps/internal/wire"
)

// Node names used by both the in-memory cluster and cmd/vfpsnode.
const (
	KeyServerName = "keyserver"
	AggServerName = "aggserver"
)

// Method names served by the roles.
const (
	// Key server.
	MethodPublicKey  = "key.public"
	MethodPrivateKey = "key.private"

	// Participants.
	MethodRankingBatch      = "party.rankingBatch"
	MethodEncryptAll        = "party.encryptAll"
	MethodEncryptCandidates = "party.encryptCandidates"
	MethodNeighborSum       = "party.neighborSum"

	// Aggregation server.
	MethodCollectAll          = "agg.collectAll"
	MethodFaginCollect        = "agg.faginCollect"
	MethodAggregateCandidates = "agg.aggregateCandidates"
	MethodAggregateFrontier   = "agg.aggregateFrontier"

	// Participant methods used only by the Threshold-Algorithm variant.
	MethodEncryptRankScore = "party.encryptRankScore"
)

// PublicKeyResp carries the protection-scheme choice plus its key material:
// the serialised public key for Paillier.
type PublicKeyResp struct {
	Scheme string // "paillier" or "plain"
	Key    []byte // Paillier public key; nil otherwise
}

// PrivateKeyResp carries the serialised private key to the leader.
type PrivateKeyResp struct {
	Scheme string
	Key    []byte
}

// RankingBatchReq asks a participant for the next mini-batch of its
// ascending-distance sub-ranking for a query.
type RankingBatchReq struct {
	Query  int // original instance id of the query sample
	Offset int // rank offset into the sorted list
	Count  int // mini-batch size b
}

// RankingBatchResp returns pseudo IDs in ascending partial-distance order.
type RankingBatchResp struct {
	PseudoIDs []int
}

// EncryptAllReq asks for encrypted partial distances of every instance
// (except the query itself), the VFPS-SM-BASE access pattern.
//
// PackBits > 0 dictates the adaptive slot width (per-value magnitude bound,
// in bits) the party must pack under — negotiated from the NeedBits the
// parties advertised last round. 0 keeps the static EnablePacking geometry.
// Under Paillier the party withholds ciphertext blocks the aggregator already
// caches from an earlier round; NoCache forces a full resend (the cache-miss
// recovery path).
type EncryptAllReq struct {
	Query    int
	PackBits int
	NoCache  bool
}

// EncryptAllResp returns ciphertexts aligned with ascending pseudo IDs.
// PackFactor > 1 means each ciphertext carries that many consecutive values
// (slot packing; the last one partially filled), so len(Ciphers) is
// ceil(len(PseudoIDs)/PackFactor). 0 or 1 means one value per ciphertext:
// the field is omitted when zero, so an unpacked response carries no trace
// of packing.
//
// PackBits echoes the adaptive slot width the ciphertexts were packed under
// (0 = static geometry). NeedBits advertises the smallest slot width this
// party's values would fit, feeding the aggregator's next-round negotiation.
// CachedBlocks lists indices into the full ciphertext vector that were
// withheld because the receiver caches them (the corresponding Ciphers
// entries are empty placeholders).
type EncryptAllResp struct {
	PseudoIDs    []int
	Ciphers      [][]byte
	PackFactor   int
	PackBits     int
	NeedBits     int
	CachedBlocks []int
}

// EncryptCandidatesReq asks for encrypted partial distances of the given
// candidate pseudo IDs only (the Fagin-pruned set). PackBits and NoCache
// behave as in EncryptAllReq.
type EncryptCandidatesReq struct {
	Query     int
	PseudoIDs []int
	PackBits  int
	NoCache   bool
}

// EncryptCandidatesResp returns ciphertexts aligned with the request order
// (slot-packed when PackFactor > 1; PackBits, NeedBits and CachedBlocks as in
// EncryptAllResp).
type EncryptCandidatesResp struct {
	Ciphers      [][]byte
	PackFactor   int
	PackBits     int
	NeedBits     int
	CachedBlocks []int
}

// NeighborSumReq asks for d^p_T = Σ_{t∈T} d^p_t over the pseudo IDs of the
// query's k nearest neighbours.
type NeighborSumReq struct {
	Query     int
	PseudoIDs []int
}

// NeighborSumResp returns the plaintext partial-distance sum.
type NeighborSumResp struct {
	Sum float64
}

// EncryptRankScoreReq asks a participant to encrypt the partial distance of
// the instance at the given rank of its sorted list (the TA scan frontier).
// Ranks past the end of the list clamp to the last entry.
type EncryptRankScoreReq struct {
	Query int
	Rank  int
}

// EncryptRankScoreResp returns the frontier ciphertext.
type EncryptRankScoreResp struct {
	Cipher []byte
}

// AggregateCandidatesReq asks the aggregation server to collect and
// homomorphically sum the parties' encrypted partial distances for specific
// pseudo IDs (TA random-access phase). NoCache is relayed to the party links
// (see EncryptAllReq): the leader sets it for a query the previous round did
// not run. Round numbers the leader round the request belongs to: the server
// dictates one slot width to every collection of a round.
type AggregateCandidatesReq struct {
	Query     int
	PseudoIDs []int
	NoCache   bool
	Round     int
}

// AggregateCandidatesResp returns aggregated ciphertexts aligned with the
// request order (slot-packed when PackFactor > 1, see EncryptAllResp).
// PackBits reports the adaptive slot width in effect (0 = static); PackAdds
// the aggregation depth the leader must unpack under.
type AggregateCandidatesResp struct {
	Aggregated [][]byte
	PackFactor int
	PackBits   int
	PackAdds   int
}

// AggregateFrontierReq asks the aggregation server for the encrypted TA
// threshold: the sum over parties of each party's score at the given rank.
type AggregateFrontierReq struct {
	Query int
	Rank  int
}

// AggregateFrontierResp returns the aggregated threshold ciphertext.
type AggregateFrontierResp struct {
	Cipher []byte
}

// CollectAllReq drives the BASE variant for one query. NoCache and Round
// behave as in AggregateCandidatesReq.
type CollectAllReq struct {
	Query   int
	NoCache bool
	Round   int
}

// CollectAllResp returns the homomorphically aggregated complete distances
// for every pseudo ID (slot-packed when PackFactor > 1, see EncryptAllResp;
// PackBits/PackAdds as in AggregateCandidatesResp).
type CollectAllResp struct {
	PseudoIDs  []int
	Aggregated [][]byte
	PackFactor int
	PackBits   int
	PackAdds   int
}

// FaginCollectReq drives the optimized variant for one query. NoCache and
// Round behave as in AggregateCandidatesReq.
type FaginCollectReq struct {
	Query   int
	K       int
	Batch   int
	NoCache bool
	Round   int
}

// packedLen returns how many ciphertexts carry n values at the given pack
// factor: ceil(n/factor), with 0 and 1 both meaning one value per ciphertext.
func packedLen(n, packFactor int) int {
	if packFactor <= 1 {
		return n
	}
	return (n + packFactor - 1) / packFactor
}

// normFactor maps the wire encoding of an absent pack factor (an omitted
// field decodes as 0) to the explicit unpacked factor 1.
func normFactor(f int) int {
	if f <= 1 {
		return 1
	}
	return f
}

// FaginStats reports the pruning achieved by the top-k phase for one query.
type FaginStats struct {
	Rounds     int
	ScanDepth  int
	Candidates int
}

// FaginCollectResp returns aggregated complete distances for the candidate
// set only (slot-packed when PackFactor > 1, see EncryptAllResp; the payload
// extension fields as in CollectAllResp).
type FaginCollectResp struct {
	PseudoIDs  []int
	Aggregated [][]byte
	PackFactor int
	Stats      FaginStats
	PackBits   int
	PackAdds   int
}

// ---- wire layouts --------------------------------------------------------
//
// Each message declares its v1 layout once, as a field table (wire.Fields):
// one entry per field, in ascending tag order, from which wire.Marshal and
// wire.Unmarshal derive both directions. internal/wire documents the field
// grammar, golden_test.go pins byte-level vectors, and docs/wire_tags.md is
// the tag table rendered from these tables. Tags are append-only: new fields
// take fresh tags so v1 peers skip them, and a retired field's tag stays
// reserved — never reused — so a peer that still sends it is skipped the
// same way (TestFieldTables holds the reserved list). Absent fields decode
// as zero, which the normFactor/packedLen helpers already normalise.

// Fields skips tags 3–6, reserved for the retired secagg and dp parameters.
func (m *PublicKeyResp) Fields(f *wire.Fields) {
	f.String(1, &m.Scheme)
	f.Bytes(2, &m.Key)
}

// Fields keeps PublicKeyResp's layout.
func (m *PrivateKeyResp) Fields(f *wire.Fields) { (*PublicKeyResp)(m).Fields(f) }

func (m *RankingBatchReq) Fields(f *wire.Fields) {
	f.Int(1, &m.Query)
	f.Int(2, &m.Offset)
	f.Int(3, &m.Count)
}

func (m *RankingBatchResp) Fields(f *wire.Fields) { f.IDs(1, &m.PseudoIDs) }

// Fields skips tag 3, reserved for the retired delta flag.
func (m *EncryptAllReq) Fields(f *wire.Fields) {
	f.Int(1, &m.Query)
	f.Int(2, &m.PackBits)
	f.Bool(4, &m.NoCache)
}

func (m *EncryptAllResp) Fields(f *wire.Fields) {
	f.IDs(1, &m.PseudoIDs)
	f.Blobs(2, &m.Ciphers)
	f.Int(3, &m.PackFactor)
	f.Int(4, &m.PackBits)
	f.Int(5, &m.NeedBits)
	f.IDs(6, &m.CachedBlocks)
}

// Fields skips tag 4, reserved for the retired delta flag.
func (m *EncryptCandidatesReq) Fields(f *wire.Fields) {
	f.Int(1, &m.Query)
	f.IDs(2, &m.PseudoIDs)
	f.Int(3, &m.PackBits)
	f.Bool(5, &m.NoCache)
}

func (m *EncryptCandidatesResp) Fields(f *wire.Fields) {
	f.Blobs(1, &m.Ciphers)
	f.Int(2, &m.PackFactor)
	f.Int(3, &m.PackBits)
	f.Int(4, &m.NeedBits)
	f.IDs(5, &m.CachedBlocks)
}

func (m *NeighborSumReq) Fields(f *wire.Fields) {
	f.Int(1, &m.Query)
	f.IDs(2, &m.PseudoIDs)
}

func (m *NeighborSumResp) Fields(f *wire.Fields) { f.Float(1, &m.Sum) }

// wireRaw gives costmodel.Raw its wire layout without coupling costmodel to
// internal/wire: the wire.CostTag trailer of every role's response.
type wireRaw costmodel.Raw

func (r *wireRaw) Fields(f *wire.Fields) {
	f.Int64(1, &r.DistanceFlops)
	f.Int64(2, &r.Encryptions)
	f.Int64(3, &r.Decryptions)
	f.Int64(4, &r.CipherAdds)
	f.Int64(5, &r.PlainAdds)
	f.Int64(6, &r.ItemsSent)
	f.Int64(7, &r.Messages)
	f.Int64(8, &r.BytesSent)
	f.Int64(9, &r.FramingBytes)
	f.Int64(10, &r.CacheHits)
	f.Int64(11, &r.CacheMisses)
}

func (m *EncryptRankScoreReq) Fields(f *wire.Fields) {
	f.Int(1, &m.Query)
	f.Int(2, &m.Rank)
}

func (m *EncryptRankScoreResp) Fields(f *wire.Fields) { f.Bytes(1, &m.Cipher) }

// Fields skips tags 3 and 4, reserved for the retired adaptive and delta
// flags.
func (m *AggregateCandidatesReq) Fields(f *wire.Fields) {
	f.Int(1, &m.Query)
	f.IDs(2, &m.PseudoIDs)
	f.Bool(5, &m.NoCache)
	f.Int(6, &m.Round)
}

// Fields leaves tag 5 reserved for the retired leader-link delta blocks.
func (m *AggregateCandidatesResp) Fields(f *wire.Fields) {
	f.Blobs(1, &m.Aggregated)
	f.Int(2, &m.PackFactor)
	f.Int(3, &m.PackBits)
	f.Int(4, &m.PackAdds)
}

func (m *AggregateFrontierReq) Fields(f *wire.Fields) {
	f.Int(1, &m.Query)
	f.Int(2, &m.Rank)
}

func (m *AggregateFrontierResp) Fields(f *wire.Fields) { f.Bytes(1, &m.Cipher) }

// Fields skips tags 2 to 4, reserved for the retired chunk size, adaptive
// flag and delta flag.
func (m *CollectAllReq) Fields(f *wire.Fields) {
	f.Int(1, &m.Query)
	f.Bool(5, &m.NoCache)
	f.Int(6, &m.Round)
}

// Fields leaves tags 6 and 7 reserved for the retired leader-link delta
// blocks and chunk-framed blocks.
func (m *CollectAllResp) Fields(f *wire.Fields) {
	f.IDs(1, &m.PseudoIDs)
	f.Blobs(2, &m.Aggregated)
	f.Int(3, &m.PackFactor)
	f.Int(4, &m.PackBits)
	f.Int(5, &m.PackAdds)
}

// Fields skips tags 4 to 6, reserved for the retired chunk size, adaptive
// flag and delta flag.
func (m *FaginCollectReq) Fields(f *wire.Fields) {
	f.Int(1, &m.Query)
	f.Int(2, &m.K)
	f.Int(3, &m.Batch)
	f.Bool(7, &m.NoCache)
	f.Int(8, &m.Round)
}

func (m *FaginStats) Fields(f *wire.Fields) {
	f.Int(1, &m.Rounds)
	f.Int(2, &m.ScanDepth)
	f.Int(3, &m.Candidates)
}

// Fields leaves tags 7 and 8 reserved for the retired leader-link delta
// blocks and chunk-framed blocks.
func (m *FaginCollectResp) Fields(f *wire.Fields) {
	f.IDs(1, &m.PseudoIDs)
	f.Blobs(2, &m.Aggregated)
	f.Int(3, &m.PackFactor)
	f.Msg(4, &m.Stats)
	f.Int(5, &m.PackBits)
	f.Int(6, &m.PackAdds)
}
