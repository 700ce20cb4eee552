package failstop_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestPaperMapCitesExistingCode keeps PAPER_MAP.md executable: every
// backticked Test*, Benchmark* or Fuzz* name it cites must name a test
// function in some _test.go file of the repository, and every E<n> must
// be a registered experiment. A trailing * cites every test with that
// prefix; text after a / names a subtest and is not checked.
func TestPaperMapCitesExistingCode(t *testing.T) {
	doc, err := os.ReadFile("PAPER_MAP.md")
	if err != nil {
		t.Fatalf("read PAPER_MAP.md: %v", err)
	}

	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// Hidden directories hold no cited code; .bench_build holds Go
		// module caches full of other modules' tests.
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRe.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan test files: %v", err)
	}

	cited := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[^`]*)`")
	for _, m := range cited.FindAllStringSubmatch(string(doc), -1) {
		name, _, _ := strings.Cut(m[1], "/")
		prefix, isPrefix := strings.CutSuffix(name, "*")
		found := false
		for _, f := range funcs {
			if f == name || isPrefix && strings.HasPrefix(f, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("PAPER_MAP.md cites %s, which names no test function", m[1])
		}
	}

	ids := make(map[string]bool)
	for _, e := range bench.All() {
		ids[e.ID] = true
	}
	for _, id := range regexp.MustCompile(`\bE[0-9]+\b`).FindAllString(string(doc), -1) {
		if !ids[id] {
			t.Errorf("PAPER_MAP.md cites experiment %s, which is not registered", id)
		}
	}
}
