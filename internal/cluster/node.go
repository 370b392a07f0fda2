// Package cluster turns a set of lambdaserver processes into one
// epoch-fenced, automatically-failing-over database: a Node wraps the
// engine's replication machinery behind role transitions (PROMOTE /
// FOLLOW), and a Router funnels client writes to the current primary while
// spreading reads across lag-healthy replicas, promoting the most
// caught-up replica when the primary dies.
//
// The fencing invariant the package maintains: at most one node accepts
// writes per cluster epoch. The epoch is a monotonic counter persisted
// through the WAL (wal.Manager.SetEpoch); promotion durably bumps it
// before the node becomes writable, every replication control frame
// carries it, and both ends of a stream refuse the other side's stale
// epoch. A partitioned ex-primary therefore fences itself the moment it
// hears from any node of the new regime — and until then, nothing
// replicates from it, so its unreplicated writes cannot leak.
package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"

	"lambdadb/internal/engine"
	"lambdadb/internal/faultinject"
	"lambdadb/internal/repl"
	"lambdadb/internal/server"
	"lambdadb/internal/server/wire"
	"lambdadb/internal/wal"
)

// NodeConfig tunes one cluster member.
type NodeConfig struct {
	// Replica tunes the following side (used whenever the node follows).
	Replica repl.ReplicaConfig
	// Primary tunes the shipping side (used whenever the node leads).
	// OnStaleEpoch is overwritten by the Node: self-demotion is its job.
	Primary repl.PrimaryConfig
	// Logger receives role-transition logs. Nil discards them.
	Logger *slog.Logger
}

// role is the replication role a Node is playing.
type role uint8

const (
	// fenced: read-only with no replication machinery running — a node not
	// yet started, a demoted primary waiting to learn its successor, a
	// transition that failed half-way, or a closed node.
	fenced role = iota
	// following: read-only, mirroring a primary's log (n.replica runs).
	following
	// leading: writable under the WAL's durable epoch, shipping its log to
	// whoever subscribes (n.primary runs).
	leading
)

func (r role) String() string { return [...]string{"fenced", "following", "leading"}[r] }

// legal[from][to] is the set of role transitions. leading → leading is
// absent on purpose: re-promoting a leader must not burn an epoch, so
// Promote answers it without a transition.
var legal = [3][3]bool{
	fenced:    {fenced: true, following: true, leading: true},
	following: {fenced: true, following: true, leading: true},
	leading:   {fenced: true, following: true},
}

// Node is one cluster member: an engine plus the replication role it is
// currently playing. It implements engine.ClusterControl (PROMOTE/FOLLOW
// statements land here) and server.ReplicationHandler (replica streams are
// forwarded to the current primary machinery, or refused while following).
//
// The role lives in three places — the engine's writable flag, the WAL's
// commit-logger mode, and which replication machinery runs — and transition
// is the only code that changes any of them.
type Node struct {
	db  *engine.DB
	mgr *wal.Manager
	cfg NodeConfig
	log *slog.Logger

	mu      sync.Mutex
	role    role
	primary *repl.Primary // non-nil exactly while leading
	replica *repl.Replica // non-nil exactly while following
	closed  bool
}

// NewNode wraps db — which must have been opened with a data directory —
// and starts it in the role it was configured for: following primaryAddr
// when non-empty (the -replica-of flag), else leading under the epoch its
// log already holds. Opening db with engine.WithReadReplica(primaryAddr)
// fences it from the first statement; NewNode fences it either way before
// the stream starts.
func NewNode(db *engine.DB, primaryAddr string, cfg NodeConfig) (*Node, error) {
	mgr := db.WALManager()
	if mgr == nil {
		return nil, fmt.Errorf("cluster: a node requires a database opened with a data directory")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	n := &Node{db: db, mgr: mgr, cfg: cfg, log: cfg.Logger}
	db.SetClusterControl(n)
	to := leading
	if primaryAddr != "" {
		to = following
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.transition(to, primaryAddr, 0); err != nil {
		return nil, err
	}
	return n, nil
}

// transition moves the node to role `to`, applying the three role flags in
// one fixed order so no interleaving can leave the engine writable without
// the machinery and the epoch that justify it:
//
//  1. fence the engine (writes are refused from here on, redirecting to
//     primary when it is known),
//  2. stop whatever machinery the old role ran,
//  3. to lead: put the WAL back in primary mode and make the epoch durable
//     (epoch > 0 bumps it — promotion; 0 keeps the log's own — start-up);
//     to stay fenced: adopt the newer epoch a peer reported, in memory,
//  4. start the new role's machinery (a follower's first act is putting
//     the WAL in mirror mode),
//  5. to lead: unfence.
//
// A failure at any step leaves the node fenced. The caller holds n.mu.
func (n *Node) transition(to role, primary string, epoch uint64) error {
	if n.closed {
		return fmt.Errorf("cluster: node is closed")
	}
	if !legal[n.role][to] {
		return fmt.Errorf("cluster: no %s → %s transition", n.role, to)
	}
	n.db.BecomeReplica(primary)
	if n.primary != nil {
		// Stop closes replica sockets — possibly including the one whose
		// goroutine is running this transition (staleEpoch); Stop never
		// joins those goroutines, so calling it inline cannot deadlock.
		n.primary.Stop()
		n.primary = nil
	}
	if n.replica != nil {
		n.replica.Close()
		n.replica = nil
	}
	n.role = fenced
	switch to {
	case fenced:
		n.mgr.AdoptEpoch(epoch)
	case following:
		if err := faultinject.Fire("cluster.node.follow"); err != nil {
			return err
		}
		r, err := repl.StartReplica(n.db, primary, n.cfg.Replica)
		if err != nil {
			return err
		}
		n.replica = r
	case leading:
		n.mgr.PrimaryMode()
		if epoch > 0 {
			if err := n.mgr.SetEpoch(epoch); err != nil {
				return fmt.Errorf("cluster: promote: persist epoch %d: %w", epoch, err)
			}
		}
		cfg := n.cfg.Primary
		cfg.OnStaleEpoch = n.staleEpoch
		p, err := repl.NewPrimary(n.db, cfg)
		if err != nil {
			return err
		}
		n.primary = p
		n.db.BecomePrimary()
	}
	n.role = to
	return nil
}

// Role reports "primary" or "replica" plus the current fencing epoch.
func (n *Node) Role() (string, uint64) {
	if n.db.Writable() {
		return "primary", n.mgr.Epoch()
	}
	return "replica", n.mgr.Epoch()
}

// Promote implements engine.ClusterControl: detach from the old primary,
// durably bump the cluster epoch, and become the writable primary — the
// epoch record is durable before the first write is accepted, so no commit
// can ever exist under an epoch that was not fenced first. Promoting a node
// that already leads just returns the current epoch (the router retries
// promotion on failover; it must be idempotent).
func (n *Node) Promote(ctx context.Context) (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == leading {
		return n.mgr.Epoch(), nil
	}
	epoch := n.mgr.Epoch() + 1
	if err := n.transition(leading, "", epoch); err != nil {
		return 0, err
	}
	n.log.Info("promoted to primary", "epoch", epoch)
	return epoch, nil
}

// Follow implements engine.ClusterControl: fence the node read-only, stop
// any leading machinery, and stream from addr. Re-pointing an existing
// replica at a new primary restarts the stream (its durable position is
// preserved; divergence or lag is handled by the stream's usual resync
// path).
func (n *Node) Follow(ctx context.Context, addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.transition(following, addr, 0); err != nil {
		return err
	}
	n.log.Info("following primary", "primary", addr, "epoch", n.mgr.Epoch())
	return nil
}

// staleEpoch is the Primary's OnStaleEpoch hook: a replica reported an
// epoch newer than ours, so another node was promoted and this one must
// stop writing immediately. It does not start following anyone — the
// router (or an operator) names our new primary with FOLLOW once one is
// known.
func (n *Node) staleEpoch(remoteEpoch uint64, peer string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != leading {
		return // already demoted
	}
	n.log.Warn("fencing: peer reported a newer cluster epoch",
		"peer", peer, "remote_epoch", remoteEpoch, "local_epoch", n.mgr.Epoch())
	if err := n.transition(fenced, "", remoteEpoch); err != nil {
		n.log.Warn("fencing stopped half-way; the node stays read-only", "err", err.Error())
	}
}

// ServeReplication implements server.ReplicationHandler by forwarding to
// the current leading machinery. While following (or mid-demotion) the
// stream is refused: replicas must chain from the real primary.
func (n *Node) ServeReplication(ctx context.Context, nc net.Conn, br *bufio.Reader, start []byte) {
	n.mu.Lock()
	p := n.primary
	n.mu.Unlock()
	if p == nil {
		_ = wire.WriteFrame(nc, wire.Error, []byte("repl: this node is not a primary"))
		return
	}
	p.ServeReplication(ctx, nc, br, start)
}

// Close stops whatever role machinery is running and leaves the engine
// fenced. The engine itself is the caller's to close.
func (n *Node) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.transition(fenced, "", 0) == nil { // else: already closed
		n.closed = true
	}
}

// compile-time interface checks
var (
	_ engine.ClusterControl     = (*Node)(nil)
	_ server.ReplicationHandler = (*Node)(nil)
)
