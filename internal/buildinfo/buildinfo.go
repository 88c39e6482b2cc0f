// Package buildinfo identifies the build that produced a result artifact —
// toolchain version and git commit — so JSON results (bench/ envelopes,
// sweep -json envelopes) stay attributable to the exact tree that made
// them.
package buildinfo

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// GoVersion returns the running toolchain version (e.g. "go1.24.0").
func GoVersion() string { return runtime.Version() }

// GitCommit returns the commit hash of the tree this binary was built from:
// the VCS stamp when the binary carries one (a plain `go build` in a git
// checkout), else `git rev-parse HEAD` in the working directory (the
// `go run` / `go test` path, where the toolchain omits the stamp), else
// "unknown". A tree with uncommitted changes is marked with a "-dirty"
// suffix on both paths: from the stamp's vcs.modified, or — since rev-parse
// cannot see the working tree — from a non-empty `git status --porcelain`.
func GitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				return rev + "-dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(st))) > 0 {
				return rev + "-dirty"
			}
			return rev
		}
	}
	return "unknown"
}
