package httpapi

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"os"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
)

// sealedCheckpoint frames body as a binary checkpoint of the given format:
// the magic, the format byte, body, and the CRC32C of what precedes it.
func sealedCheckpoint(format byte, body []byte) []byte {
	b := append([]byte{'G', 'S', 'N', 'A', 'P', format}, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// deflateBomb is a format-2 checkpoint whose body is n zero bytes: a few
// kilobytes that inflate to n.
func deflateBomb(t testing.TB, n int) []byte {
	t.Helper()
	var z bytes.Buffer
	zw, err := flate.NewWriter(&z, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(make([]byte, n))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return sealedCheckpoint(2, z.Bytes())
}

// checkpointOf is the checkpoint of s's one view and its rules: what
// GET /api/snapshot serves of a deployment holding the same state.
func checkpointOf(t testing.TB, s *core.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := persist.WriteCheckpoint([]*core.View{s.View()}, &b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// restoreCap is the upload and inflation limit FuzzRestore serves with:
// above the seeds, far below what a bomb could take.
const restoreCap = 1 << 20

// FuzzRestore: any POST /api/restore body sent to an in-memory
// one-pipeline deployment over a small study is answered, never with a
// panic or a 5xx; and an upload it refuses leaves GET /api/snapshot
// byte-identical: the study's checkpoint. Seeded with a JSON export, a
// checkpoint in each format (format 1 as a build of the previous format
// wrote it) and a deflate bomb past the route's limit.
func FuzzRestore(f *testing.F) {
	study := influenzaStore(f, 3)
	snap, err := persist.Export(study)
	if err != nil {
		f.Fatal(err)
	}
	var js bytes.Buffer
	if err := persist.WriteSnapshot(snap, &js); err != nil {
		f.Fatal(err)
	}
	checkpoint := checkpointOf(f, study)
	plain, err := os.ReadFile("../durable/testdata/parent-55b73eb/data/graphitti-0000000000000007.snap")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{js.Bytes(), checkpoint, plain, deflateBomb(f, 4*restoreCap), []byte("{nope")} {
		f.Add(seed)
	}
	// The served snapshot of the loaded study is its checkpoint: IDs and
	// counters load as they were exported.
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := persist.Load(snap)
		if err != nil {
			t.Fatal(err)
		}
		h := New(memorySet(s), Options{MaxRestoreBytes: restoreCap})
		rr := serve(h, "POST", "/api/restore", string(body))
		if rr.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		if rr.Code == http.StatusOK {
			return
		}
		if after := serve(h, "GET", "/api/snapshot", ""); !bytes.Equal(after.Body.Bytes(), checkpoint) {
			t.Fatalf("a refused restore (%d: %s) changed the snapshot", rr.Code, rr.Body.Bytes())
		}
	})
}
