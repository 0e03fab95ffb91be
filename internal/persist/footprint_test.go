package persist_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
)

// heapSampler reads r and, every 64 KiB, collects the garbage and notes
// the live heap: the high-water mark of what a load holds while it reads.
type heapSampler struct {
	r     io.Reader
	since int
	peak  uint64
}

const sampleEvery = 64 << 10

func (h *heapSampler) Read(p []byte) (int, error) {
	n, err := h.r.Read(p)
	if h.since += n; h.since >= sampleEvery || err != nil {
		h.since = 0
		h.peak = max(h.peak, liveHeap())
	}
	return n, err
}

// liveHeap is the heap in use once the garbage is collected: twice, so
// what a cleanup or a weak reference let go of in the first is gone too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// loadExcess loads file through a heapSampler and returns how far the
// live heap rose, while the file was read, above the live heap the
// finished store leaves: what the load held besides the store.
func loadExcess(t *testing.T, file []byte) int64 {
	t.Helper()
	h := &heapSampler{r: bytes.NewReader(file)}
	s, err := persist.Read(h)
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(s)
	return int64(h.peak) - int64(after)
}

// TestLoadHoldsOneAnnotation: a load holds the store it builds and the
// op in hand, not the snapshot. Loading a JSON export and a checkpoint
// of 2k and of 16k benchmark-shaped annotations, read through a reader
// that samples the live heap every 64 KiB, the peak rises above what the
// finished store holds by at most loadSlack, and by as much for 16k as
// for 2k, give or take growSlack. A load that decoded the whole snapshot
// first held its file and every dump beside the half-built store, and
// the excess grew with the snapshot: 0.75 MB at 2k annotations of JSON,
// 6.1 MB at 16k (4.2 MB of JSON; 0.36 MB as a checkpoint).
func TestLoadHoldsOneAnnotation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds stores of 16k annotations")
	}
	const (
		loadSlack = 256 << 10 // the decoder's buffers and the inflater's window
		growSlack = 64 << 10
	)
	forms := map[string]func(*core.Store, io.Writer) error{
		"JSON":       persist.Write,
		"checkpoint": writeCheckpoint,
	}
	files := map[string]map[int][]byte{}
	for _, n := range []int{2000, 16000} {
		s := benchmarkShapedStore(t, n)
		for form, write := range forms {
			var b bytes.Buffer
			if err := write(s, &b); err != nil {
				t.Fatal(err)
			}
			if files[form] == nil {
				files[form] = map[int][]byte{}
			}
			files[form][n] = b.Bytes()
		}
	}
	for form := range forms {
		small, large := loadExcess(t, files[form][2000]), loadExcess(t, files[form][16000])
		t.Logf("%s: loading 2k annotations (%d bytes) held %d bytes besides the store, 16k (%d bytes) %d",
			form, len(files[form][2000]), small, len(files[form][16000]), large)
		if small > loadSlack || large > loadSlack {
			t.Errorf("%s: a load held %d bytes (2k) and %d (16k) besides the store, want at most %d", form, small, large, loadSlack)
		}
		if large > small+growSlack {
			t.Errorf("%s: a load of 16k annotations held %d bytes besides the store, 2k %d: it grows with the snapshot", form, large, small)
		}
	}
}
