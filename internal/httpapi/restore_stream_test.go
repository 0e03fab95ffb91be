package httpapi

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/shard"
)

// dirFiles reads every file under dir, by path; nil without a dir.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	if dir == "" {
		return nil
	}
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		files[path], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRestoreRefusedAtEveryPoint: a restore is streamed — each op applied
// as its bytes arrive — and still refused whole wherever in the stream it
// goes wrong: at its last byte (a checkpoint whose checksum is wrong only
// there), in the middle of an annotation (a JSON export cut short), at the
// upload cap in the middle of the annotations (413), at the inflate cap
// in the middle of the annotation section (413), and at a key the JSON
// form refuses to stream (an object section after the annotations, the
// annotations twice). Over one pipeline and three, in memory and over a
// data directory, each answers its status, and GET /api/snapshot and every
// file of the directory are what they were before the request.
func TestRestoreRefusedAtEveryPoint(t *testing.T) {
	upload := influenzaStore(t, 300)
	var js bytes.Buffer
	if err := persist.Write(upload, &js); err != nil {
		t.Fatal(err)
	}
	export := js.Bytes()
	checkpoint := checkpointOf(t, upload)
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(checkpoint[len("GSNAP\x02") : len(checkpoint)-4])))
	if err != nil {
		t.Fatal(err)
	}
	// The annotations' offsets in the export: the middle one's start, and
	// a cut inside it.
	anns := bytes.Index(export, []byte(`"annotations":[`))
	if anns < 0 {
		t.Fatal("the export has no annotations")
	}
	starts := anns
	for range 150 {
		starts += 1 + bytes.Index(export[starts+1:], []byte(`{"id":`))
	}
	middle := starts
	badSum := bytes.Clone(checkpoint)
	badSum[len(badSum)-1] ^= 0x01
	beforeEnd := func(extra string) []byte { // extra as the export's last key
		end := bytes.LastIndexByte(export, '}')
		return append(append(bytes.Clone(export[:end]), extra...), export[end:]...)
	}
	for _, c := range []struct {
		name  string
		body  []byte
		limit int64
		code  int
		says  string
	}{
		{"checksum wrong in its last byte", badSum, 0, http.StatusBadRequest, "checksum"},
		{"cut in an annotation", export[:middle+40], 0, http.StatusBadRequest, "unexpected EOF"},
		{"upload cap in the annotations", export, int64(middle), http.StatusRequestEntityTooLarge,
			fmt.Sprintf("snapshot exceeds %d bytes", middle)},
		{"inflate cap in the annotations", checkpoint, int64(len(body)) * 3 / 4, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("snapshot exceeds %d bytes", len(body)*3/4)},
		{"object section after the annotations", beforeEnd(`,"images":[]`), 0, http.StatusBadRequest,
			`key \"images\" comes after the annotations`},
		{"annotations twice", beforeEnd(`,"annotations":[]`), 0, http.StatusBadRequest,
			`key \"annotations\" comes twice`},
	} {
		if c.limit != 0 && c.limit <= int64(len(checkpoint)) {
			t.Fatalf("%s: a limit of %d is under the %d-byte checkpoint", c.name, c.limit, len(checkpoint))
		}
		t.Run(c.name, func(t *testing.T) {
			deployments(t, func(t *testing.T, d deployment) {
				var sh *shard.Store
				var dir string
				if d.fromCore {
					sh = memorySet(influenzaStore(t, 30))
				} else {
					if d.durable {
						dir = t.TempDir()
					}
					sh = d.open(t, dir, durable.Options{})
					snap, err := persist.Export(influenzaStore(t, 30))
					if err != nil {
						t.Fatal(err)
					}
					if err := sh.Restore(snap); err != nil {
						t.Fatal(err)
					}
				}
				ts := httptest.NewServer(New(sh, Options{MaxRestoreBytes: c.limit}))
				defer ts.Close()
				_, snapBefore := fetch(t, "GET", ts.URL+"/api/snapshot", nil)
				filesBefore := dirFiles(t, dir)
				code, resp := fetch(t, "POST", ts.URL+"/api/restore", c.body)
				if code != c.code || !bytes.Contains(resp, []byte(c.says)) {
					t.Fatalf("%s: %d (%s), want %d saying %s", c.name, code, resp, c.code, c.says)
				}
				if _, after := fetch(t, "GET", ts.URL+"/api/snapshot", nil); !bytes.Equal(after, snapBefore) {
					t.Errorf("%s: the refused restore changed the snapshot", c.name)
				}
				if after := dirFiles(t, dir); !reflect.DeepEqual(after, filesBefore) {
					t.Errorf("%s: the refused restore changed the data directory", c.name)
				}
			})
		})
	}
}
