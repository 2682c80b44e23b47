package compile_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/load"
	"queuemachine/internal/occamgen"
	"queuemachine/internal/workloads"
)

// goldenFile holds one line per (program, option set): the SHA-256 of the
// object's JSON encoding and of its assembly listing (or of the error, for
// the few programs an ablation leaves uncompilable). The hashes were
// taken from the compiler before its analyses were rewritten over dense
// node indices; any change to generated code or listings shows up here.
const goldenFile = "testdata/golden.txt"

// goldenOptions are the default options and each single ablation flag.
var goldenOptions = []struct {
	name string
	opts compile.Options
}{
	{"default", compile.Options{}},
	{"noinputorder", compile.Options{NoInputOrder: true}},
	{"nolivefilter", compile.Options{NoLiveFilter: true}},
	{"nopriority", compile.Options{NoPriority: true}},
	{"noconstfold", compile.Options{NoConstFold: true}},
}

type goldenProgram struct{ name, src string }

// goldenCorpus is the eight exact-gated sweep programs, the load corpus
// and occamgen seeds 1–400.
func goldenCorpus(t *testing.T) []goldenProgram {
	var progs []goldenProgram
	for _, wl := range workloads.Gated() {
		progs = append(progs, goldenProgram{"sweep/" + wl.Name, wl.Source})
	}
	corpus, err := load.Corpus("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus {
		progs = append(progs, goldenProgram{"corpus/" + p.Name, p.Source})
	}
	for seed := int64(1); seed <= 400; seed++ {
		progs = append(progs, goldenProgram{fmt.Sprintf("occamgen/%d", seed),
			occamgen.GenerateSeed(seed, occamgen.DefaultConfig())})
	}
	return progs
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenHashes compiles one program and returns its golden-file entry:
// the object and listing hashes, or, for a program the option set cannot
// compile, the hash of the error message.
func goldenHashes(t *testing.T, src string, opts compile.Options) string {
	art, err := compile.Compile(src, opts)
	if err != nil {
		return "error " + sha([]byte(err.Error()))
	}
	obj, err := json.Marshal(art.Object)
	if err != nil {
		t.Fatal(err)
	}
	return sha(obj) + " " + sha([]byte(art.Assembly()))
}

// TestGoldenObjectCode compiles the golden corpus under every option set
// and checks the object and listing hashes against testdata.
func TestGoldenObjectCode(t *testing.T) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, hashes, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		want[key] = hashes
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	n := 0
	for _, p := range goldenCorpus(t) {
		for _, o := range goldenOptions {
			key := p.name + "/" + o.name
			got := goldenHashes(t, p.src, o.opts)
			if w, ok := want[key]; !ok {
				t.Errorf("%s: not in %s (got %s)", key, goldenFile, got)
			} else if got != w {
				t.Errorf("%s: hashes %s, golden %s", key, got, w)
			}
			n++
		}
	}
	if n != len(want) {
		t.Errorf("compiled %d (program, options) pairs, %s has %d", n, goldenFile, len(want))
	}
}
