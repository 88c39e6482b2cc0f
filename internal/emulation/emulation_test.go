package emulation

import (
	"sync"
	"testing"

	"repro/internal/types"
)

func TestValidateWriters(t *testing.T) {
	for _, k := range []int{1, 2, int(ReaderIDBase) - 1} {
		if err := ValidateWriters(k); err != nil {
			t.Errorf("ValidateWriters(%d) = %v, want nil", k, err)
		}
	}
	for _, k := range []int{0, -3, int(ReaderIDBase), int(ReaderIDBase) + 5} {
		if err := ValidateWriters(k); err == nil {
			t.Errorf("ValidateWriters(%d) = nil, want error", k)
		}
	}
}

// TestReaderIDsConcurrent creates readers (Handles.NewReader) from many
// goroutines and demands unique IDs above ReaderIDBase — the async engine
// creates readers from its event loop while other goroutines hold handles
// too.
func TestReaderIDsConcurrent(t *testing.T) {
	var h Handles
	if err := h.Init("test", 1, nil); err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 200
	ids := make(chan types.ClientID, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids <- h.NewReader().Client()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[types.ClientID]bool)
	for id := range ids {
		if id < ReaderIDBase {
			t.Fatalf("reader ID %d below ReaderIDBase", id)
		}
		if seen[id] {
			t.Fatalf("duplicate reader ID %d", id)
		}
		seen[id] = true
	}
}
