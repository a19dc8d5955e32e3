package analysis_test

import (
	"path/filepath"
	"testing"

	"fpgavirtio/internal/analysis"
)

// TestLoaderReleaseTags checks that a //go:build line naming a Go
// release is judged against the running toolchain: a file gated on a
// released version is loaded, one gated on a future version is not.
func TestLoaderReleaseTags(t *testing.T) {
	dir, err := filepath.Abs("testdata/releasetags")
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := analysis.FindModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader(modPath, root).LoadDir(dir, "fvlint.fixture/releasetags")
	if err != nil {
		t.Fatal(err)
	}
	scope := pkg.Types.Scope()
	for name, want := range map[string]bool{"Base": true, "Released": true, "Future": false} {
		if got := scope.Lookup(name) != nil; got != want {
			t.Errorf("%s declared = %v, want %v", name, got, want)
		}
	}
}
