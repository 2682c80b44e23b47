package ring

import "testing"

func mustNew(t *testing.T, pes, parts int) *Ring {
	t.Helper()
	r, err := New(pes, parts, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, DefaultParams()); err == nil {
		t.Error("zero PEs accepted")
	}
	if _, err := New(4, 3, DefaultParams()); err == nil {
		t.Error("uneven partitioning accepted")
	}
	if _, err := New(4, 5, DefaultParams()); err == nil {
		t.Error("more partitions than PEs accepted")
	}
	r := mustNew(t, 8, 4)
	if r.NumPEs() != 8 || r.Partitions() != 4 {
		t.Error("accessors broken")
	}
}

func TestPartitionAssignment(t *testing.T) {
	r := mustNew(t, 8, 4)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for pe, p := range want {
		if got := r.Partition(pe); got != p {
			t.Errorf("Partition(%d) = %d, want %d", pe, got, p)
		}
	}
}

func TestHopsShorterDirection(t *testing.T) {
	r := mustNew(t, 8, 4)
	cases := []struct{ from, to, want int }{
		{0, 1, 0}, // same partition
		{0, 2, 1},
		{0, 4, 2}, // opposite side
		{0, 6, 1}, // shorter to go the other way
		{6, 0, 1},
	}
	for _, c := range cases {
		if got := r.Hops(c.from, c.to); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestIntraprocessorFree(t *testing.T) {
	r := mustNew(t, 4, 2)
	if got := r.Transfer(100, 2, 2); got != 100 {
		t.Errorf("self transfer arrives at %d", got)
	}
	if r.Stats.Messages != 1 {
		t.Error("message not counted")
	}
}

func TestTransferLatency(t *testing.T) {
	p := Params{BusCycles: 4, LinkCycles: 4}
	r, _ := New(8, 4, p)
	// Same partition: one bus occupancy.
	if got := r.Transfer(0, 0, 1); got != 4 {
		t.Errorf("same partition arrival = %d, want 4", got)
	}
	// One hop: bus + link + bus.
	r2, _ := New(8, 4, p)
	if got := r2.Transfer(0, 0, 2); got != 12 {
		t.Errorf("one hop arrival = %d, want 12", got)
	}
	// Two hops: bus + 2 links + bus.
	r3, _ := New(8, 4, p)
	if got := r3.Transfer(0, 0, 4); got != 16 {
		t.Errorf("two hop arrival = %d, want 16", got)
	}
}

func TestContentionSerializes(t *testing.T) {
	p := Params{BusCycles: 4, LinkCycles: 4}
	r, _ := New(4, 1, p) // single shared bus
	t1 := r.Transfer(0, 0, 1)
	t2 := r.Transfer(0, 2, 3)
	if t1 != 4 || t2 != 8 {
		t.Errorf("arrivals = %d, %d; want 4, 8", t1, t2)
	}
	if r.Stats.WaitCycles != 4 {
		t.Errorf("wait cycles = %d, want 4", r.Stats.WaitCycles)
	}
}

func TestNoFalseContentionAcrossPartitions(t *testing.T) {
	p := Params{BusCycles: 4, LinkCycles: 4}
	r, _ := New(8, 4, p)
	// Transfers inside disjoint partitions do not interfere.
	t1 := r.Transfer(0, 0, 1)
	t2 := r.Transfer(0, 2, 3)
	if t1 != 4 || t2 != 4 {
		t.Errorf("arrivals = %d, %d; want both 4", t1, t2)
	}
	if r.Stats.WaitCycles != 0 {
		t.Error("false contention")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		r := mustNew(t, 8, 4)
		var out []int64
		for i := 0; i < 50; i++ {
			out = append(out, r.Transfer(int64(i), i%8, (i*3)%8))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSinglePE(t *testing.T) {
	r := mustNew(t, 1, 1)
	if got := r.Transfer(5, 0, 0); got != 5 {
		t.Errorf("single PE transfer = %d", got)
	}
}
