// Package serve is the MVCC read-serving layer over committed PM-octree
// versions. The paper keeps V(i-1) and V(i) with structural sharing so a
// crash always finds a consistent version; this package exploits the same
// property for live traffic: every committed version is immutable, so a
// reader holding its root can answer point lookups, region queries, and
// leaf-field aggregations with zero coordination against the simulation
// writer that keeps committing new steps.
//
// The pieces:
//
//   - Catalog: the version window. The writer publishes each commit; the
//     catalog pins it (core.VersionPin) and retires the oldest beyond its
//     keep depth. Readers acquire refcounted Snapshot handles; GC may reap
//     a version only after its last snapshot closes.
//   - Snapshot: an immutable read handle. Queries run over a flat
//     Morton-sorted leaf index (the Cornerstone/Etree layout) with
//     binary-searched key windows — no tree pointer chasing on the hot
//     path. A version the writer publishes right after its commit arrives
//     with a copy of the writer's own index. Any other version (a restored
//     tree's, a fallback-ring version, a tree holding filler leaves) is
//     read in place: its points descend
//     the pinned tree, and its first region, aggregate or LeafCount builds
//     the index with one charged walk, which every later point uses.
//   - Scheduler: bounded admission. Requests queue up to a fixed depth and
//     are drained in small batches by worker goroutines; a full queue
//     rejects immediately with a retry-after hint instead of collapsing
//     under load.
//   - Wire format (wire.go): request parsing and encoding, answer bodies
//     and error statuses, shared with the router and its HTTP backend.
//   - HTTP front end (http.go): the JSON surface cmd/pmserve mounts.
//
// All request paths emit serve.* metrics through telemetry.Registry.
package serve

import (
	"fmt"
	"sync"

	"pmoctree/internal/core"
	"pmoctree/internal/telemetry"
)

// Config parameterizes a Catalog.
type Config struct {
	// Keep is how many committed versions the catalog holds pinned
	// (default 2, the paper's V(i-1)/V(i) shape extended to serving).
	Keep int
	// Registry, when set, receives serve.catalog.* metrics.
	Registry *telemetry.Registry
}

// NoSuchVersionError reports an Acquire for a step the catalog does not
// hold, listing what it does hold so clients can retarget.
type NoSuchVersionError struct {
	Step      uint64
	Available []uint64
}

func (e *NoSuchVersionError) Error() string {
	return fmt.Sprintf("serve: version step %d not in catalog (available %v)", e.Step, e.Available)
}

// ErrCatalogClosed is returned by operations on a closed Catalog.
var ErrCatalogClosed = fmt.Errorf("serve: catalog is closed")

// Catalog is the window of committed versions currently being served.
// Publish runs on the simulation writer's thread (it pins through the
// Tree); Acquire and Steps are safe from any goroutine.
type Catalog struct {
	tree *core.Tree
	keep int

	mu       sync.Mutex
	versions []*Snapshot // catalog-owned handles, ascending step
	closed   bool

	published *telemetry.Counter
	evicted   *telemetry.Counter
}

// NewCatalog builds a catalog over tree. Nothing is pinned until the
// first Publish.
func NewCatalog(tree *core.Tree, cfg Config) *Catalog {
	if cfg.Keep <= 0 {
		cfg.Keep = 2
	}
	c := &Catalog{tree: tree, keep: cfg.Keep}
	if r := cfg.Registry; r != nil {
		c.published = r.Counter("serve.catalog.published")
		c.evicted = r.Counter("serve.catalog.evicted")
		r.RegisterFunc("serve.catalog.versions", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.versions))
		})
		r.RegisterFunc("serve.catalog.pins", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, s := range c.versions {
				n += s.v.pin.Refs()
			}
			return float64(n)
		})
	}
	return c
}

// Publish pins the currently committed version into the catalog and
// returns a caller-owned handle to it (Close it when done). Publishing
// the same committed step twice is idempotent. Versions beyond the keep
// depth are retired: the catalog drops its reference, and the version is
// reclaimed by GC once every outstanding snapshot on it closes. Writer
// thread only.
func (c *Catalog) Publish() (*Snapshot, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCatalogClosed
	}
	step := c.tree.CommittedStep()
	if n := len(c.versions); n > 0 && c.versions[n-1].Step() == step {
		s := c.versions[n-1].acquire()
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()

	// Pinning walks writer-owned state; done outside c.mu so metric
	// scrapes never wait on it.
	pin := c.tree.PinCommitted()
	return c.install(pin)
}

// PublishVersion pins an arbitrary committed version — typically one of
// tree.RetainedVersions(), so a server can offer fallback-ring history —
// and returns a caller-owned handle. Writer thread only.
func (c *Catalog) PublishVersion(root core.Ref, step uint64) (*Snapshot, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCatalogClosed
	}
	for _, s := range c.versions {
		if s.Step() == step {
			s2 := s.acquire()
			c.mu.Unlock()
			return s2, nil
		}
	}
	c.mu.Unlock()
	pin, err := c.tree.PinVersion(root, step)
	if err != nil {
		return nil, err
	}
	return c.install(pin)
}

// install registers a freshly created pin as a catalog version, keeping
// the version list step-ordered and the window at keep depth, and returns
// a caller-owned handle (the pin's initial reference becomes the
// catalog's; the handle retains one more).
func (c *Catalog) install(pin *core.VersionPin) (*Snapshot, error) {
	v := newVersion(pin)
	own := &Snapshot{v: v} // catalog's handle, wrapping the pin's initial ref
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		own.Close()
		return nil, ErrCatalogClosed
	}
	i := len(c.versions)
	for i > 0 && c.versions[i-1].Step() > pin.Step() {
		i--
	}
	c.versions = append(c.versions, nil)
	copy(c.versions[i+1:], c.versions[i:])
	c.versions[i] = own
	var drop []*Snapshot
	for len(c.versions) > c.keep {
		drop = append(drop, c.versions[0])
		c.versions = c.versions[1:]
	}
	out := own.acquire()
	c.mu.Unlock()

	if c.published != nil {
		c.published.Inc()
	}
	for _, s := range drop {
		s.Close()
		if c.evicted != nil {
			c.evicted.Inc()
		}
	}
	return out, nil
}

// AcquireLatest returns a handle on the newest published version.
func (c *Catalog) AcquireLatest() (*Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrCatalogClosed
	}
	if len(c.versions) == 0 {
		return nil, &NoSuchVersionError{}
	}
	return c.versions[len(c.versions)-1].acquire(), nil
}

// Acquire returns a handle on the version committed at exactly step.
func (c *Catalog) Acquire(step uint64) (*Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrCatalogClosed
	}
	for _, s := range c.versions {
		if s.Step() == step {
			return s.acquire(), nil
		}
	}
	return nil, &NoSuchVersionError{Step: step, Available: c.stepsLocked()}
}

// Steps lists the published version steps, ascending.
func (c *Catalog) Steps() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stepsLocked()
}

func (c *Catalog) stepsLocked() []uint64 {
	out := make([]uint64, len(c.versions))
	for i, s := range c.versions {
		out[i] = s.Step()
	}
	return out
}

// Close retires every version. Outstanding snapshots stay valid until
// their holders close them; new Publish/Acquire calls fail.
func (c *Catalog) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	drop := c.versions
	c.versions = nil
	c.mu.Unlock()
	for _, s := range drop {
		s.Close()
	}
}
