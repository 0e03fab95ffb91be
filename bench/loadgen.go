package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// client is one closed-loop caller with one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	head []byte // first bytes of the last response
	rest []byte // drain buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base,
		head: make([]byte, 1024), rest: make([]byte, 64<<10)}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what the load generator keeps of a response: it is drained
// and checksummed, never decoded.
type reply struct {
	status int
	size   int
	crc    uint32
	head   []byte // valid until the client's next request
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (reply, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	n, err := io.ReadFull(resp.Body, c.head)
	r.head, r.size = c.head[:n], n
	r.crc = crc32.Update(0, castagnoli, r.head)
	for err == nil {
		n, err = resp.Body.Read(c.rest)
		r.size += n
		r.crc = crc32.Update(r.crc, castagnoli, c.rest[:n])
	}
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		return r, err
	}
	return r, nil
}

// get fetches an administrative resource whole.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

// record is the per-op outcome of one pass over the stream.
type record struct {
	latNs []int64
	size  []int32
	crc   []uint32
	// fail holds a reason for every op that did not return what the
	// stream expects.
	fail map[int]string
	mu   sync.Mutex
}

func newRecord(n int) *record {
	return &record{latNs: make([]int64, n), size: make([]int32, n), crc: make([]uint32, n), fail: map[int]string{}}
}

func (r *record) failOp(i int, format string, args ...interface{}) {
	r.mu.Lock()
	r.fail[i] = fmt.Sprintf(format, args...)
	r.mu.Unlock()
}

var wantStatus = [numClasses]int{
	clCreate: http.StatusCreated, clDelete: http.StatusNoContent, clGet: http.StatusOK,
	clRefAt: http.StatusOK, clRelated: http.StatusOK, clKeyword: http.StatusOK,
	clQuery: http.StatusOK, clSearch: http.StatusOK,
}

// execOp sends op i and checks what can be checked without decoding.
func execOp(ctx context.Context, c *client, st *stream, i int, ids []uint64, rec *record) {
	o := &st.ops[i]
	path := o.target(ids)
	start := time.Now()
	r, err := c.do(ctx, o.method, path, o.body)
	rec.latNs[i] = int64(time.Since(start))
	rec.size[i], rec.crc[i] = int32(r.size), r.crc
	if err == nil {
		err = o.check(r.status, r.head, ids)
	}
	if err != nil {
		rec.failOp(i, "%s %s: %v", o.method, path, err)
	}
}

// check holds a response's status and first bytes against what the op
// expects, and records the ID a create returned under the op's slot.
func (o *op) check(status int, head []byte, ids []uint64) error {
	switch {
	case status != wantStatus[o.cl]:
		return fmt.Errorf("status %d, want %d: %.120s", status, wantStatus[o.cl], head)
	case o.cl == clCreate:
		id, ok := scanID(head)
		if !ok {
			return fmt.Errorf("no id in %.60q", head)
		}
		ids[o.slot] = id
	case o.want != "" && !bytes.Contains(head, []byte(`"title":"`+o.want+`"`)):
		return fmt.Errorf("title %q not in %.120q", o.want, head)
	}
	return nil
}

// scanID reads the annotation ID off the front of a create response,
// which begins {"id":N.
func scanID(head []byte) (uint64, bool) {
	const prefix = `{"id":`
	if !bytes.HasPrefix(head, []byte(prefix)) {
		return 0, false
	}
	end := len(prefix)
	for end < len(head) && head[end] >= '0' && head[end] <= '9' {
		end++
	}
	id, err := strconv.ParseUint(string(head[len(prefix):end]), 10, 64)
	return id, err == nil
}

// runOps drives ops [lo,hi) closed-loop: client c sends the ops whose
// index is c modulo the client count, each only after its previous one
// completed, and the call returns when every client is done.
func runOps(ctx context.Context, cs []*client, st *stream, lo, hi int, ids []uint64, rec *record) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := lo + ((c-lo)%len(cs)+len(cs))%len(cs)
			for i := first; i < hi && ctx.Err() == nil; i += len(cs) {
				execOp(ctx, cs[c], st, i, ids, rec)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}
