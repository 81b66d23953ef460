package harmony

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMakeFuzzRunsEveryTarget keeps `make fuzz` (CI's fuzz smoke) in step
// with the tree: every func Fuzz* in a test file has a line in the
// Makefile's fuzz target that runs it alone, `-fuzz '^Name$'` on its
// package, and that target runs nothing else. -fuzz takes a regular
// expression that must match exactly one target of the package, so an
// unanchored name breaks the step once a second target shares its prefix.
func TestMakeFuzzRunsEveryTarget(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	var inTree []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			inTree = append(inTree, m[1]+" ./"+filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	body := regexp.MustCompile(`(?m)^fuzz:\n((?:\t.*\n)*)`).FindSubmatch(makefile)
	if body == nil {
		t.Fatal("Makefile has no fuzz target")
	}
	lineRE := regexp.MustCompile(`^\t\$\(GO\) test -run '\^\$\$' -fuzz '\^(Fuzz\w*)\$\$' -fuzztime \S+ (\./\S+)$`)
	var inMake []string
	for _, line := range strings.Split(strings.TrimSuffix(string(body[1]), "\n"), "\n") {
		m := lineRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("fuzz target line %q is not `$(GO) test -run '^$$' -fuzz '^Name$$' -fuzztime T ./pkg`", line)
			continue
		}
		inMake = append(inMake, m[1]+" "+m[2])
	}

	sort.Strings(inTree)
	sort.Strings(inMake)
	if strings.Join(inTree, "\n") != strings.Join(inMake, "\n") {
		t.Errorf("make fuzz runs:\n  %s\nthe tree has:\n  %s", strings.Join(inMake, "\n  "), strings.Join(inTree, "\n  "))
	}
}
