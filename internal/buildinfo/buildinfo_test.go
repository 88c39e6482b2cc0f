package buildinfo

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGitCommitMarksDirtyTree drives the fallback path — a test binary
// carries no VCS stamp — in a throwaway repository: a clean tree reports the
// bare hash, an edited one the hash with a "-dirty" suffix.
func TestGitCommitMarksDirtyTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		// Keep the host's git configuration (hooks, signing, templates) out
		// of the throwaway repository.
		cmd.Env = append(os.Environ(), "GIT_CONFIG_GLOBAL=/dev/null", "GIT_CONFIG_SYSTEM=/dev/null")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return strings.TrimSpace(string(out))
	}
	file := filepath.Join(dir, "f.txt")
	if err := os.WriteFile(file, []byte("one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	git("add", "f.txt")
	git("-c", "user.name=t", "-c", "user.email=t@example.invalid", "commit", "-q", "-m", "one")
	head := git("rev-parse", "HEAD")
	t.Chdir(dir)

	if got := GitCommit(); got != head {
		t.Fatalf("clean tree: GitCommit = %q, want %q", got, head)
	}
	if err := os.WriteFile(file, []byte("two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := GitCommit(); got != head+"-dirty" {
		t.Fatalf("edited tree: GitCommit = %q, want %q", got, head+"-dirty")
	}
}
