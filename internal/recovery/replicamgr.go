package recovery

import (
	"fmt"
	"sort"

	"pmoctree/internal/cluster"
	"pmoctree/internal/nvbm"
)

// Node is one machine in the replica pool, with its NVBM device and the
// replica images it hosts for other nodes.
type Node struct {
	ID       int
	replicas map[int]*nvbm.Device // primary node id -> replica image
	// usedBytes approximates this node's NVBM utilization for placement.
	usedBytes int
	capacity  int
}

// Used returns the node's consumed replica bytes.
func (n *Node) Used() int { return n.usedBytes }

// ReplicaManager automates remote-replica scheduling — the paper's §3.4
// feature ("V(i-1)^P is stored on other compute nodes or staging nodes
// selected by job schedulers according to their NVBM utilization") with
// the automated placement it leaves as future work:
//
//   - Place picks the least-utilized node (never the primary itself);
//   - Sync ships only the bytes written since the last sync, which the
//     high inter-step overlap ratio keeps small;
//   - Recover hands the replica image to a replacement node.
type ReplicaManager struct {
	nodes []*Node
	net   cluster.Network
	// link, when set, carries every frame over a lossy network with
	// retry/backoff; nil means the lossless alpha-beta model.
	link *cluster.LossyNetwork
	// placement maps a primary node id to its replica host.
	placement map[int]int
	// syncSeq numbers Sync attempts per primary; lastGood remembers the
	// sequence of the last delivered frame, so a degraded replica (one or
	// more failed syncs since) is detectable.
	syncSeq  map[int]uint64
	lastGood map[int]uint64
	// failedSyncs counts consecutive undeliverable frames per primary.
	failedSyncs map[int]int
	// ShippedBytes and ShippedNs accumulate replication traffic (wire
	// bytes of delivered frames; modeled time of all attempts).
	ShippedBytes uint64
	ShippedNs    float64
	// FramesShipped counts delivered delta frames.
	FramesShipped uint64
}

// NewReplicaManager builds a pool of n nodes, each with the given replica
// capacity in bytes (0 = unlimited), connected by net.
func NewReplicaManager(n int, capacityBytes int, net cluster.Network) *ReplicaManager {
	m := &ReplicaManager{
		net:         net,
		placement:   map[int]int{},
		syncSeq:     map[int]uint64{},
		lastGood:    map[int]uint64{},
		failedSyncs: map[int]int{},
	}
	for i := 0; i < n; i++ {
		m.nodes = append(m.nodes, &Node{
			ID:       i,
			replicas: map[int]*nvbm.Device{},
			capacity: capacityBytes,
		})
	}
	return m
}

// SetLink routes all replica frames over l, a seeded lossy network with
// retry and exponential backoff. Frames that exhaust the retry budget
// leave the replica stale (degraded) until a later sync succeeds.
func (m *ReplicaManager) SetLink(l *cluster.LossyNetwork) { m.link = l }

// Place assigns (or returns the existing) replica host for the primary on
// node primaryID needing approximately bytes of space: the least-utilized
// node with capacity, excluding the primary itself.
func (m *ReplicaManager) Place(primaryID int, bytes int) (*Node, error) {
	if host, ok := m.placement[primaryID]; ok {
		return m.nodes[host], nil
	}
	candidates := make([]*Node, 0, len(m.nodes))
	for _, n := range m.nodes {
		if n.ID == primaryID {
			continue
		}
		if n.capacity > 0 && n.usedBytes+bytes > n.capacity {
			continue
		}
		candidates = append(candidates, n)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("recovery: no node can host a %d-byte replica for node %d", bytes, primaryID)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].usedBytes != candidates[j].usedBytes {
			return candidates[i].usedBytes < candidates[j].usedBytes
		}
		return candidates[i].ID < candidates[j].ID
	})
	host := candidates[0]
	m.placement[primaryID] = host.ID
	return host, nil
}

// Sync replicates the primary's persistent region to its host by shipping
// one checksummed delta frame: exactly the device lines that differ from
// the replica image travel the wire, and exactly those lines are applied
// to the persistent replica image on delivery — modeled cost, replica
// memory, and shipped bytes agree. Call it after each Persist.
//
// Lines failing the primary's media CRC (when tracking is on) are
// excluded from the frame, so bit-rot never propagates into the replica.
// With a lossy link, a frame that exhausts its retry budget leaves the
// replica at its previous (still commit-consistent) contents and marks it
// degraded; the error wraps cluster.ErrLinkFailure.
func (m *ReplicaManager) Sync(primaryID int, primary *nvbm.Device) error {
	host, err := m.Place(primaryID, primary.Size())
	if err != nil {
		return err
	}
	replica := host.replicas[primaryID]
	if replica == nil {
		replica = nvbm.New(nvbm.NVBM, 0)
		if primary.MediaTracking() {
			// The replica keeps its own CRC shadow, so a failover image
			// arrives with media protection already in force.
			replica.EnableMediaTracking()
		}
		host.replicas[primaryID] = replica
	}
	lines := primary.DiffLines(replica)
	if primary.MediaTracking() {
		clean := lines[:0]
		for _, line := range lines {
			if !primary.RangeCorrupt(line*nvbm.LineSize, nvbm.LineSize) {
				clean = append(clean, line)
			}
		}
		lines = clean
	}
	m.syncSeq[primaryID]++
	frame := buildFrame(primary, lines, m.syncSeq[primaryID])
	wire := frame.WireBytes()
	if m.link != nil {
		ns, err := m.link.Ship(wire)
		m.ShippedNs += ns
		if err != nil {
			m.failedSyncs[primaryID]++
			return fmt.Errorf("recovery: replica sync for node %d (seq %d): %w",
				primaryID, frame.Seq, err)
		}
	} else {
		m.ShippedNs += m.net.Transfer(wire)
	}
	oldSize := replica.Size()
	if err := applyFrame(replica, frame, m.lastGood[primaryID]); err != nil {
		// Defensive: a delivered frame always applies (corrupt attempts
		// are NACKed inside Ship); a refusal here means sender-side
		// memory corruption between Seal and delivery.
		m.failedSyncs[primaryID]++
		return fmt.Errorf("recovery: replica frame for node %d: %w", primaryID, err)
	}
	host.usedBytes += replica.Size() - oldSize
	m.ShippedBytes += uint64(wire)
	m.FramesShipped++
	m.lastGood[primaryID] = frame.Seq
	m.failedSyncs[primaryID] = 0
	return nil
}

// ReplicaImage returns the live replica image for primaryID (nil when no
// sync has succeeded yet). The image is owned by its host node; callers
// may read it (e.g. as a scrub repair source) but must not write it.
func (m *ReplicaManager) ReplicaImage(primaryID int) *nvbm.Device {
	hostID, ok := m.placement[primaryID]
	if !ok {
		return nil
	}
	return m.nodes[hostID].replicas[primaryID]
}

// ReplicaState describes one replica's health for the degraded-mode
// report.
type ReplicaState struct {
	PrimaryID   int
	HostID      int
	SyncedSeq   uint64 // sequence of the last delivered frame
	CurrentSeq  uint64 // sequence of the last attempted frame
	FailedSyncs int    // consecutive undeliverable frames since the last success
	Degraded    bool   // replica lags the primary (or never synced)
}

// Report returns the health of every placed replica, sorted by primary
// id. A replica is degraded when its last delivered frame is older than
// the last attempted one — after a crash it would recover an older
// committed version than the primary held.
func (m *ReplicaManager) Report() []ReplicaState {
	ids := make([]int, 0, len(m.placement))
	for id := range m.placement {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]ReplicaState, 0, len(ids))
	for _, id := range ids {
		st := ReplicaState{
			PrimaryID:   id,
			HostID:      m.placement[id],
			SyncedSeq:   m.lastGood[id],
			CurrentSeq:  m.syncSeq[id],
			FailedSyncs: m.failedSyncs[id],
		}
		st.Degraded = st.SyncedSeq < st.CurrentSeq
		out = append(out, st)
	}
	return out
}

// Recover returns a copy of the replica image for the failed primary,
// charging the transfer to the replacement node. The replica itself stays
// on its host (it remains the recovery point until the replacement
// re-syncs).
func (m *ReplicaManager) Recover(primaryID int) (*nvbm.Device, float64, error) {
	hostID, ok := m.placement[primaryID]
	if !ok {
		return nil, 0, fmt.Errorf("recovery: node %d has no replica", primaryID)
	}
	img := m.nodes[hostID].replicas[primaryID]
	if img == nil {
		return nil, 0, fmt.Errorf("recovery: replica for node %d missing on host %d", primaryID, hostID)
	}
	ns := m.net.Transfer(img.Size())
	return img.Clone(), ns, nil
}

// HostOf reports which node hosts the replica for primaryID.
func (m *ReplicaManager) HostOf(primaryID int) (int, bool) {
	h, ok := m.placement[primaryID]
	return h, ok
}

// Nodes exposes the pool for inspection.
func (m *ReplicaManager) Nodes() []*Node { return m.nodes }
