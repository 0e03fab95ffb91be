package httpapi

import (
	"bytes"
	"net/http"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// createSeeds are the POST /api/annotations bodies the handler tests send,
// against the influenza study they run over.
var createSeeds = []string{
	`{"creator":"http-user","date":"2008-04-07","title":"posted over HTTP","body":"protease-ish observation","tags":{"via":"httpapi"},` +
		`"marks":[{"type":"interval","domain":"segment1","lo":10,"hi":90},{"type":"clade","objectId":"H5N1-phylogeny","keys":["duck","chicken"]}],` +
		`"terms":[{"Ontology":"go","TermID":"protease"}]}`,
	`{"creator":"http-user","date":"2008-04-07","title":"posted over HTTP","body":"protease-ish observation",` +
		`"marks":[{"type":"interval","domain":"segment1","lo":10,"hi":90}],"terms":[{"Ontology":"go","TermID":"protease"}]}`,
	`{"creator":"a","date":"2008-01-01","marks":[{"type":"interval","domain":"segment1","lo":500,"hi":600}]}`,
	`{"creator":"a<b","date":"2026-10-02","title":"t&t","body":"posted","marks":[{"type":"sequence","seqId":"NC_00000","lo":1,"hi":9}]}`,
	`{"creator":"api-user","date":"2026-07-29","body":"durable via http","marks":[{"type":"sequence","seqId":"NC_00100","lo":1,"hi":20}]}`,
	`{"creator":"u","date":"2026-08-08","body":"written over http","marks":[{"type":"sequence","seqId":"chr1","lo":1,"hi":20}]}`,
	`{"creator":"x","date":"2008-01-01","marks":[{"type":"interval","domain":"segment1","lo":90,"hi":10}]}`,
	`{"creator":"x","date":"2008-01-01","marks":[{"type":"hologram"}]}`,
	`{nope`,
}

// FuzzCreateAnnotation: any POST /api/annotations body sent to an
// in-memory one-pipeline deployment over a small study is answered, never
// with a panic or a 5xx; and after a create, the store's export loads and
// holds the same state (workload.Diff).
func FuzzCreateAnnotation(f *testing.F) {
	for _, body := range createSeeds {
		f.Add(body)
	}
	snap, err := persist.Export(influenzaStore(f, 3))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s, err := persist.Load(snap)
		if err != nil {
			t.Fatal(err)
		}
		rr := serve(NewHandler(s), "POST", "/api/annotations", body)
		if rr.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		if rr.Code != http.StatusCreated {
			return
		}
		var export bytes.Buffer
		if err := persist.Write(s, &export); err != nil {
			t.Fatal(err)
		}
		loaded, err := persist.Read(&export)
		if err != nil {
			t.Fatalf("export after the create does not load: %v", err)
		}
		if err := workload.Diff([]*core.View{loaded.View()}, []*core.View{s.View()}); err != nil {
			t.Fatalf("the export loads to another state: %v", err)
		}
	})
}
