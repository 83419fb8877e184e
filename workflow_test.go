package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkflowStepNamesAreQuoted: in YAML a plain (unquoted) scalar
// cannot hold ": " or end in ":", so a step name that does must be quoted
// or the CI workflow file does not parse and none of its steps run. The
// check runs under go test, which does not depend on the workflow.
func TestWorkflowStepNamesAreQuoted(t *testing.T) {
	path := filepath.Join(".github", "workflows", "ci.yml")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(blob), "\n") {
		key := strings.TrimPrefix(strings.TrimSpace(line), "- ")
		name, ok := strings.CutPrefix(key, "name:")
		if !ok {
			continue
		}
		name = strings.TrimSpace(name)
		if strings.HasPrefix(name, `"`) || strings.HasPrefix(name, "'") {
			continue
		}
		if strings.Contains(name, ": ") || strings.HasSuffix(name, ":") {
			t.Errorf("%s:%d: name %q holds an unquoted colon; quote it", path, i+1, name)
		}
	}
}
