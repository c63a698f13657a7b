package main_test

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintAtHead builds the analyzer binary and runs the whole suite
// over the module, the same way `make lint` does. The tree must stay
// lint-clean: a diagnostic anywhere (a blocking call under a
// //tempo:guard mutex, a codec field the decoder forgot, an allocation
// on a //tempo:noalloc path, a missing doc comment) fails this test.
func TestLintAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping full-tree lint")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "analyze")

	build := exec.Command("go", "build", "-o", bin, "./tools/analyze")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./tools/analyze: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("lint found diagnostics at HEAD: %v\n%s", err, out)
	}
}

// maxWaivers is the number of //tempo:allowblock and //tempo:allowalloc
// waivers in non-test code. It only goes down: a change that removes a
// waiver lowers it, and a change that needs a new one has to argue for
// raising it.
const maxWaivers = 3

// TestWaiverRatchet pins the waiver count, so an analyzer finding can
// not be silenced without the diff saying so.
func TestWaiverRatchet(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// tools holds the analyzers' own fixtures and documentation;
			// dot-directories hold build outputs.
			if name := d.Name(); path != root && (name == "vendor" || name == "tools" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "//tempo:allowblock") || strings.HasPrefix(line, "//tempo:allowalloc") {
				rel, _ := filepath.Rel(root, path)
				found = append(found, fmt.Sprintf("%s:%d: %s", rel, i+1, line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != maxWaivers {
		t.Fatalf("%d waivers in non-test code, pinned at %d (lower maxWaivers when one is removed):\n%s",
			len(found), maxWaivers, strings.Join(found, "\n"))
	}
}
