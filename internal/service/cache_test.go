package service

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/pe"
)

// compileFor builds a distinct loaded program for cache tests.
func compileFor(t *testing.T, n int) *pe.Program {
	t.Helper()
	src := fmt.Sprintf("var v[1]:\nseq\n  v[0] := %d\n", n)
	art, err := compile.Compile(src, compile.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	prog, err := pe.LoadProgram(art.Object)
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	return prog
}

func TestCacheAccounting(t *testing.T) {
	c := newProgramCache(2)
	a, b, d := compileFor(t, 1), compileFor(t, 2), compileFor(t, 3)

	if _, ok := c.get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.add("a", a)
	c.add("b", b)
	if got, ok := c.get("a"); !ok || got != a {
		t.Fatal("a not cached")
	}
	// Adding a third entry evicts the least recently used ("b": "a" was
	// just promoted by the get above).
	c.add("d", d)
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a was evicted despite being most recently used")
	}
	st := c.stats()
	want := CacheStats{Hits: 2, Misses: 2, Evictions: 1, Entries: 2, Capacity: 2}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestCacheRefreshIsNotEviction(t *testing.T) {
	c := newProgramCache(2)
	a1, a2 := compileFor(t, 1), compileFor(t, 1)
	c.add("a", a1)
	c.add("a", a2) // concurrent compilers may both add the same key
	st := c.stats()
	if st.Entries != 1 || st.Evictions != 0 {
		t.Errorf("stats after refresh = %+v", st)
	}
	if got, _ := c.get("a"); got != a2 {
		t.Error("refresh did not replace the program")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newProgramCache(4)
	arts := make([]*pe.Program, 8)
	for i := range arts {
		arts[i] = compileFor(t, i)
	}
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("k%d", (g+i)%8)
				if _, ok := c.get(key); !ok {
					c.add(key, arts[(g+i)%8])
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.stats()
	if st.Hits+st.Misses != 8*perG {
		t.Errorf("hits %d + misses %d != %d gets", st.Hits, st.Misses, 8*perG)
	}
	if st.Entries > 4 {
		t.Errorf("entries = %d exceeds capacity", st.Entries)
	}
}

func TestArtifactForDeterminism(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const src = "var v[1]:\nseq\n  v[0] := 42\n"
	fp := compile.Fingerprint(src, compile.Options{})
	_, state1, err := s.programFor(context.Background(), src, compile.Options{}, fp)
	if err != nil {
		t.Fatalf("programFor: %v", err)
	}
	prog2, state2, err := s.programFor(context.Background(), src, compile.Options{}, fp)
	if err != nil {
		t.Fatalf("programFor: %v", err)
	}
	if state1 != cacheStateMiss || state2 != cacheStateHit {
		t.Errorf("cache states = %q, %q; want %q, %q", state1, state2, cacheStateMiss, cacheStateHit)
	}
	if prog2 == nil {
		t.Error("cached program is nil")
	}
}
