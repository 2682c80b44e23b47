package fleet

import (
	"fmt"
	"testing"
)

func testNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://replica-%d:8344", i)
	}
	return out
}

func TestRingOwnerIsStable(t *testing.T) {
	r := NewRing(testNodes(3), 0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		owner := r.Owner(key)
		for j := 0; j < 5; j++ {
			if got := r.Owner(key); got != owner {
				t.Fatalf("key %q: owner changed %q -> %q", key, owner, got)
			}
		}
		if owner == "" {
			t.Fatalf("key %q: no owner on a fully live ring", key)
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	nodes := testNodes(3)
	r := NewRing(nodes, 0)
	byNode := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		byNode[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, n := range nodes {
		share := float64(byNode[n]) / keys
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %s owns %.1f%% of keys; want a rough third (%v)", n, 100*share, byNode)
		}
	}
}

// TestRingMinimalReassignment is the consistent-hashing property: killing
// one node must reassign only that node's keys.
func TestRingMinimalReassignment(t *testing.T) {
	nodes := testNodes(4)
	r := NewRing(nodes, 0)
	const keys = 2000
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Owner(fmt.Sprintf("key-%d", i))
	}
	dead := nodes[1]
	if !r.SetAlive(dead, false) {
		t.Fatal("SetAlive(false) reported no change")
	}
	moved := 0
	for i := range before {
		after := r.Owner(fmt.Sprintf("key-%d", i))
		if after == dead {
			t.Fatalf("key-%d still owned by dead node", i)
		}
		if after != before[i] {
			if before[i] != dead {
				t.Errorf("key-%d moved %q -> %q though its owner stayed alive", i, before[i], after)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Error("no keys moved after killing a node")
	}
	// Revival restores the exact original assignment.
	r.SetAlive(dead, true)
	for i := range before {
		if got := r.Owner(fmt.Sprintf("key-%d", i)); got != before[i] {
			t.Fatalf("key-%d: owner %q after revival, want %q", i, got, before[i])
		}
	}
}

func TestRingOwnersFailoverOrder(t *testing.T) {
	nodes := testNodes(3)
	r := NewRing(nodes, 0)
	owners := r.Owners("some-fingerprint", 3)
	if len(owners) != 3 {
		t.Fatalf("Owners returned %v, want all 3 distinct nodes", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("Owners returned duplicate %q: %v", o, owners)
		}
		seen[o] = true
	}
	// The failover successor becomes the owner when the owner dies.
	r.SetAlive(owners[0], false)
	if got := r.Owner("some-fingerprint"); got != owners[1] {
		t.Errorf("after owner death, owner = %q, want successor %q", got, owners[1])
	}
}

func TestRingAllDead(t *testing.T) {
	nodes := testNodes(2)
	r := NewRing(nodes, 0)
	r.SetAlive(nodes[0], false)
	r.SetAlive(nodes[1], false)
	if got := r.Owner("k"); got != "" {
		t.Errorf("owner on dead ring = %q, want empty", got)
	}
	if r.LiveCount() != 0 {
		t.Errorf("LiveCount = %d, want 0", r.LiveCount())
	}
	if r.SetAlive("http://not-a-member", true) {
		t.Error("SetAlive accepted a non-member")
	}
}
