package vfl

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/he"
	"vfps/internal/mat"
	"vfps/internal/obs"
	"vfps/internal/transport"
)

// ErrUnknownParticipant is returned (wrapped) by RemoveParticipant when no
// live participant has the given index.
var ErrUnknownParticipant = errors.New("vfl: no such participant")

// ClusterConfig describes an in-process VFL deployment.
type ClusterConfig struct {
	// Partition supplies each participant's local features (training rows).
	Partition *dataset.Partition
	// Scheme is "paillier" or "plain".
	Scheme string
	// KeyBits sizes the Paillier modulus (ignored for plain). Tests use
	// small keys; production deployments should use ≥ 2048. Construction
	// fails when the key cannot hold one packed slot for the roster (see
	// ConfigurePacking).
	KeyBits int
	// ShuffleSeed seeds the shared pseudo-ID permutation.
	ShuffleSeed int64
	// Batch is the Fagin mini-batch size b (default 32).
	Batch int
	// Options are the performance settings (see Options).
	Options
	// Obs installs metrics and tracing on the transport, every role and the
	// HE schemes. Nil falls back to the process-wide default observer
	// (obs.SetDefault); when that is also unset, observability stays fully
	// disabled at no measurable cost.
	Obs *obs.Observer
	// Instance labels this cluster's metric series so several consortiums
	// can share one registry (default "local").
	Instance string
}

// Cluster is a fully wired in-process deployment: key server, aggregation
// server, one node per participant, and the leader driver.
type Cluster struct {
	Transport *transport.Memory
	Leader    *Leader
	Parties   []*Participant
	Agg       *AggServer
	Keys      *KeyServer

	shuffleSeed int64
	pubScheme   he.Scheme
	privScheme  he.Scheme
	observer    *obs.Observer
	instance    string

	// Membership state (see AddParticipant / RemoveParticipant): the current
	// roster in index order and a monotone index counter so node names are
	// never reused after a removal.
	partyNames []string
	nextIndex  int
}

// Observer returns the cluster's observer (nil when observability is off).
func (c *Cluster) Observer() *obs.Observer { return c.observer }

// ConfigurePacking installs the Paillier layout's static slot geometry on a
// scheme, with headroom for summing one ciphertext per party — exactly what
// the aggregation tree performs. Every participant's scheme must carry it, for
// the same roster size the leader holds (NewLeader and Leader.SetParties
// install the leader's own); the aggregation roles only add and need none.
// Parties lay several fixed-point partial distances side by side in each
// plaintext under this geometry on round one and whenever a negotiated width
// does not fit; it fails when the key is too small to hold even one slot.
// Plain is left alone: it already ships 8-byte values.
func ConfigurePacking(s he.Scheme, parties int) error {
	p, ok := s.(*he.Paillier)
	if !ok {
		return nil
	}
	return p.EnablePacking(parties)
}

// Close releases background resources (Paillier randomizer pools). The
// cluster stays usable afterwards; encryption just computes randomizers
// inline again.
func (c *Cluster) Close() {
	for _, s := range []he.Scheme{c.pubScheme, c.privScheme} {
		if p, ok := s.(*he.Paillier); ok {
			p.Close()
		}
	}
}

// The instance labels of a cluster's public and leader HE scheme copies are
// its own plus these suffixes.
const (
	publicSchemeSuffix = "/public"
	leaderSchemeSuffix = "/leader"
)

// SeriesInstances returns every instance label a cluster built with
// ClusterConfig.Instance = instance writes to its registry: its roles' and
// its two HE scheme copies'. A serving layer that retires the cluster for
// good deletes their series, whose pull gauges would otherwise keep the
// cluster's roles reachable for the registry's lifetime.
func SeriesInstances(instance string) []string {
	return []string{instance, instance + publicSchemeSuffix, instance + leaderSchemeSuffix}
}

// NewLocalCluster builds the full topology over the in-memory transport,
// distributing key material through the key-server RPCs exactly as the
// distributed deployment does.
func NewLocalCluster(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Partition == nil || cfg.Partition.P() == 0 {
		return nil, fmt.Errorf("vfl: cluster needs a partition")
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "plain"
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 512
	}
	o := cfg.Obs.Or(obs.Default())
	instance := cfg.Instance
	if instance == "" {
		instance = "local"
	}
	if reg := o.Registry(); reg != nil {
		transport.DeclareMetrics(reg)
		he.DeclareMetrics(reg)
		costmodel.DeclareMetrics(reg)
		declareWire(reg)
		declareDelta(reg)
	}
	tr := &transport.Memory{}
	tr.SetObserver(o)
	ks, err := NewKeyServer(cfg.Scheme, cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	tr.Register(KeyServerName, ks.Handler())

	pubScheme, err := FetchPublicScheme(ctx, tr, KeyServerName)
	if err != nil {
		return nil, err
	}
	ConfigureScheme(pubScheme, cfg.Options, true)
	if err := ConfigurePacking(pubScheme, cfg.Partition.P()); err != nil {
		return nil, err
	}
	pubScheme.SetObserver(o.Registry(), instance+publicSchemeSuffix)
	p := cfg.Partition.P()
	partyNames := make([]string, p)
	parties := make([]*Participant, p)
	for i := 0; i < p; i++ {
		part, err := NewParticipant(i, cfg.Partition.Parties[i], pubScheme, cfg.ShuffleSeed)
		if err != nil {
			return nil, err
		}
		part.SetObserver(o, instance)
		parties[i] = part
		partyNames[i] = PartyName(i)
		tr.Register(partyNames[i], part.Handler())
	}
	agg, err := NewAggServer(tr, partyNames, pubScheme, cfg.Options)
	if err != nil {
		return nil, err
	}
	agg.SetObserver(o, instance)
	tr.Register(AggServerName, agg.Handler())

	privScheme, err := FetchPrivateScheme(ctx, tr, KeyServerName)
	if err != nil {
		return nil, err
	}
	// The leader decrypts but never bulk-encrypts, so it gets no pool.
	ConfigureScheme(privScheme, cfg.Options, false)
	privScheme.SetObserver(o.Registry(), instance+leaderSchemeSuffix)
	leader, err := NewLeader(tr, AggServerName, partyNames, privScheme, cfg.Batch, cfg.Options)
	if err != nil {
		return nil, err
	}
	leader.SetObserver(o, instance)
	return &Cluster{
		Transport:   tr,
		Leader:      leader,
		Parties:     parties,
		Agg:         agg,
		Keys:        ks,
		shuffleSeed: cfg.ShuffleSeed,
		pubScheme:   pubScheme,
		privScheme:  privScheme,
		observer:    o,
		instance:    instance,
		partyNames:  partyNames,
		nextIndex:   p,
	}, nil
}

// PartyNames returns the current roster's node names in index order.
func (c *Cluster) PartyNames() []string { return append([]string(nil), c.partyNames...) }

// AddParticipant joins a new participant to a running consortium: it builds
// the participant node over the shared public scheme and shuffle seed,
// registers it on the transport, and rewires the aggregation roster, pack
// headroom and leader roster in place — no teardown, and every surviving node
// keeps its state (delta caches included, so a Paillier re-selection after
// the join re-encrypts only the new party's blocks wherever the candidates
// and the slot layout held). The joiner must
// hold features for the same instance rows. Node names are never reused: a
// join after a removal gets a fresh index, so cached ciphertext blocks can
// never alias across distinct parties. Callers fence concurrent selections
// (the server layer uses the per-consortium run lock).
func (c *Cluster) AddParticipant(x *mat.Matrix) (string, error) {
	index := c.nextIndex
	part, err := NewParticipant(index, x, c.pubScheme, c.shuffleSeed)
	if err != nil {
		return "", err
	}
	part.SetObserver(c.observer, c.instance)
	name := PartyName(index)
	c.Transport.Register(name, part.Handler())
	c.Parties = append(c.Parties, part)
	c.partyNames = append(c.partyNames, name)
	c.nextIndex = index + 1
	if err := c.rewire(); err != nil {
		return "", err
	}
	return name, nil
}

// RemoveParticipant removes the participant with the given index (the i of
// its party/<i> node name) from the consortium and rewires the aggregation
// roster, pack headroom and leader roster in place. Surviving parties keep
// their indices, names and caches. The last participant cannot be removed.
// Callers fence concurrent selections with the consortium's run lock.
func (c *Cluster) RemoveParticipant(index int) error {
	name := PartyName(index)
	pos := -1
	for i, n := range c.partyNames {
		if n == name {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("%w: %q is not in the consortium", ErrUnknownParticipant, name)
	}
	if len(c.partyNames) == 1 {
		return fmt.Errorf("vfl: cannot remove the last participant")
	}
	// Drop the handler, the metric series and the vacated slot too: each
	// keeps the participant, its feature matrix, its query cache and its
	// delta cache reachable for as long as it stays.
	c.Transport.Unregister(name)
	c.dropSeries(name)
	c.Parties = slices.Delete(c.Parties, pos, pos+1)
	c.partyNames = slices.Delete(c.partyNames, pos, pos+1)
	return c.rewire()
}

// dropSeries deletes the metric series of a node that left for good: its
// cost gauges, whose pull closures hold the node's counters (and through
// them the node), and the transport series of calls to it. Node names are
// never reused, so without this the registry grows by one set per join.
// The transport families carry no instance label, so a same-named peer of
// another consortium on the registry restarts its transport series at zero.
func (c *Cluster) dropSeries(node string) {
	reg := c.observer.Registry()
	reg.DeleteSeries(map[string]string{"instance": c.instance, "role": node})
	reg.DeleteSeries(map[string]string{"peer": node})
}

// rewire propagates the current roster through every layer that depends on
// membership: Paillier pack headroom (the packed aggregation sums one
// ciphertext per party), the aggregation server's roster and the leader's
// roster.
func (c *Cluster) rewire() error {
	if err := ConfigurePacking(c.pubScheme, len(c.partyNames)); err != nil {
		return err
	}
	if err := c.Agg.SetParties(c.partyNames); err != nil {
		return err
	}
	return c.Leader.SetParties(c.partyNames)
}
