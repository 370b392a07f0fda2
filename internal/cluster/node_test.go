package cluster

import (
	"context"
	"errors"
	"testing"

	"lambdadb/internal/engine"
	"lambdadb/internal/faultinject"
)

// Nothing listens on these: a follower pointed at them just keeps
// redialing, which is all the role tests need from a primary.
const (
	deadPrimaryA = "127.0.0.1:1"
	deadPrimaryB = "127.0.0.1:2"
)

// checkRole asserts the three places a role lives agree on want: the
// engine's writable flag, the WAL's commit-logger mode, and which
// replication machinery runs.
func checkRole(t *testing.T, step string, n *Node, want role, wantRedirect string) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != want {
		t.Fatalf("%s: role = %s, want %s", step, n.role, want)
	}
	if got := n.db.Writable(); got != (want == leading) {
		t.Errorf("%s: engine writable = %v while %s", step, got, want)
	}
	if (n.primary != nil) != (want == leading) || (n.replica != nil) != (want == following) {
		t.Errorf("%s: machinery primary=%v replica=%v while %s", step, n.primary != nil, n.replica != nil, want)
	}
	switch logging := n.db.Store().CommitLogger() != nil; {
	case want == leading && !logging:
		t.Errorf("%s: leading, but commits would bypass the WAL (mirror mode)", step)
	case want == following && logging:
		t.Errorf("%s: following, but applied records would be logged twice (primary mode)", step)
	}
	_, err := n.db.Exec("CREATE TABLE IF NOT EXISTS probe (id BIGINT)")
	var roe *engine.ReadOnlyError
	switch {
	case want == leading && err != nil:
		t.Errorf("%s: write while leading: %v", step, err)
	case want != leading && !errors.As(err, &roe):
		t.Errorf("%s: write while %s: got %v, want *engine.ReadOnlyError", step, want, err)
	case want != leading && roe.Primary != wantRedirect:
		t.Errorf("%s: write redirected to %q, want %q", step, roe.Primary, wantRedirect)
	}
}

func openNode(t *testing.T, primaryAddr string, opts ...engine.Option) *Node {
	t.Helper()
	db, err := engine.OpenDir(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(db, primaryAddr, fastNodeConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		db.Close()
	})
	return n
}

// TestNodeRoleTransitions drives every legal transition and checks after
// each step that the role flags agree.
func TestNodeRoleTransitions(t *testing.T) {
	defer faultinject.Reset()
	ctx := context.Background()
	n := openNode(t, "")
	checkRole(t, "boot", n, leading, "")
	boot := n.mgr.Epoch()

	// leading → fenced: a peer reports a newer epoch.
	n.staleEpoch(boot+5, "peer")
	checkRole(t, "stale epoch", n, fenced, "")
	if got := n.mgr.Epoch(); got != boot+5 {
		t.Fatalf("fenced node epoch = %d, want the peer's %d", got, boot+5)
	}
	n.staleEpoch(boot+9, "peer") // already demoted: ignored
	checkRole(t, "stale epoch again", n, fenced, "")

	// fenced → following → following (re-point).
	if err := n.Follow(ctx, deadPrimaryA); err != nil {
		t.Fatal(err)
	}
	checkRole(t, "follow A", n, following, deadPrimaryA)
	first := n.replica
	if err := n.Follow(ctx, deadPrimaryB); err != nil {
		t.Fatal(err)
	}
	checkRole(t, "re-point to B", n, following, deadPrimaryB)
	if n.replica == first {
		t.Fatal("re-pointing kept the old stream")
	}

	// A follow that cannot start its stream leaves the node fenced — never
	// writable, never half-following.
	errStart := errors.New("injected StartReplica failure")
	faultinject.FailOnce("cluster.node.follow", errStart)
	if err := n.Follow(ctx, deadPrimaryA); !errors.Is(err, errStart) {
		t.Fatalf("follow with a failing stream start: %v", err)
	}
	checkRole(t, "failed follow", n, fenced, deadPrimaryA)

	// fenced → leading under a durably bumped epoch; promoting a leader is
	// a no-op that burns no epoch.
	epoch, err := n.Promote(ctx)
	if err != nil || epoch != boot+6 {
		t.Fatalf("promote = %d, %v; want epoch %d", epoch, err, boot+6)
	}
	checkRole(t, "promote", n, leading, "")
	shipping := n.primary
	if again, err := n.Promote(ctx); err != nil || again != epoch || n.primary != shipping {
		t.Fatalf("second promote = %d, %v (machinery restarted: %v); want a no-op at epoch %d",
			again, err, n.primary != shipping, epoch)
	}
	checkRole(t, "promote again", n, leading, "")

	// leading → following → leading.
	if err := n.Follow(ctx, deadPrimaryA); err != nil {
		t.Fatal(err)
	}
	checkRole(t, "demote to follower", n, following, deadPrimaryA)
	if epoch, err = n.Promote(ctx); err != nil || epoch != boot+7 {
		t.Fatalf("re-promote = %d, %v; want epoch %d", epoch, err, boot+7)
	}
	checkRole(t, "re-promote", n, leading, "")

	// Close fences for good.
	n.Close()
	checkRole(t, "close", n, fenced, "")
	if _, err := n.Promote(ctx); err == nil {
		t.Fatal("promote after close succeeded")
	}
	if err := n.Follow(ctx, deadPrimaryA); err == nil {
		t.Fatal("follow after close succeeded")
	}
	checkRole(t, "after close", n, fenced, "")
}

// TestNewNodeFencesFollower: a node told to follow is read-only naming
// that primary, whatever role the engine was opened in.
func TestNewNodeFencesFollower(t *testing.T) {
	for name, opts := range map[string][]engine.Option{
		"no open-time option": nil,
		"mismatched option":   {engine.WithReadReplica(deadPrimaryB)},
		"matching option":     {engine.WithReadReplica(deadPrimaryA)},
	} {
		t.Run(name, func(t *testing.T) {
			checkRole(t, "boot", openNode(t, deadPrimaryA, opts...), following, deadPrimaryA)
		})
	}
}
