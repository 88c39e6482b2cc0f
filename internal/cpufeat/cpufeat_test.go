package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestKernelChoice names, in the test log, the kernels this machine runs, so
// a CI log shows which path its tests and fuzzers exercised (make fuzz-smoke
// runs it verbosely). On Linux it also checks the predicate against the
// kernel's own reading of CPUID: /proc/cpuinfo lists avx512f, avx512dq,
// avx512bw and gfni only when the CPU has them and the OS saves their state.
func TestKernelChoice(t *testing.T) {
	if AVX512GFNI {
		t.Logf("%s: AVX-512 F/DQ/BW and GFNI present: coded.mulRowsAdd runs the VGF2P8AFFINEQB kernel, types.PutPayload and types.PayloadMismatch the VPMULLQ kernel", runtime.GOARCH)
	} else {
		t.Logf("%s: no AVX-512 with GFNI: coded.mulRowsAdd, types.PutPayload and types.PayloadMismatch run their Go kernels", runtime.GOARCH)
	}
	if runtime.GOARCH != "amd64" || runtime.GOOS != "linux" {
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = make(map[string]bool)
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags line")
	}
	listed := flags["avx512f"] && flags["avx512dq"] && flags["avx512bw"] && flags["gfni"]
	if listed != AVX512GFNI {
		t.Errorf("AVX512GFNI = %v, but /proc/cpuinfo lists avx512f, avx512dq, avx512bw and gfni: %v", AVX512GFNI, listed)
	}
}
