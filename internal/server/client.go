package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Client talks to a spectrebench serve daemon with retry and
// exponential backoff on transient errors: connection refusals (daemon
// restarting), 429 (admission control saturated) and 503 (draining) are
// retried after a delay; 4xx request errors are not. A Retry-After
// header, when present, overrides the computed backoff — the server
// knows its own load better than the client's clock does.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds re-attempts after a transient failure (default
	// 4; 0 keeps the default, negative disables retries).
	MaxRetries int
	// BaseDelay seeds the exponential backoff (default 250ms); MaxDelay
	// caps it (default 5s).
	BaseDelay, MaxDelay time.Duration
	// Gzip requests a gzip-compressed sweep stream. Transport-only: the
	// decoded records are byte-identical either way.
	Gzip bool
	// Logf, when non-nil, receives one line per retry.
	Logf func(format string, args ...any)

	// OnRecord, when non-nil, is invoked for every NDJSON record as it
	// arrives (streaming consumers); Sweep still returns the full list.
	OnRecord func(Record)
}

// SweepResponse is a fully collected sweep.
type SweepResponse struct {
	// Results holds the per-experiment records in request (index) order;
	// an entry is nil only if the server never reported that index.
	Results []*Record
	// Summary is the final summary record.
	Summary Record
}

// transientError marks a failure worth retrying.
type transientError struct {
	err        error
	retryAfter time.Duration // 0 = use backoff
}

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Sweep posts req and collects the streamed response, retrying whole
// requests on transient errors. Retrying the whole sweep is safe:
// results are deterministic and cells completed by an abandoned attempt
// sit in the daemon's caches, so a retry converges instead of
// recomputing.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 4
	} else if retries < 0 {
		retries = 0
	}
	baseDelay := c.BaseDelay
	if baseDelay <= 0 {
		baseDelay = 250 * time.Millisecond
	}
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}

	var lastErr error
	backoff := min(baseDelay, maxDelay)
	for attempt := 0; ; attempt++ {
		resp, err := c.sweepOnce(ctx, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		var te *transientError
		if !errors.As(err, &te) || attempt >= retries {
			return nil, lastErr
		}
		delay := backoff
		if te.retryAfter > 0 {
			delay = te.retryAfter
		}
		// Double up to the cap, comparing against half the cap so the
		// doubling itself cannot overflow.
		if backoff > maxDelay/2 {
			backoff = maxDelay
		} else {
			backoff *= 2
		}
		c.logf("client: transient error (%v), retrying in %s (attempt %d/%d)",
			te.err, delay, attempt+1, retries)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
		}
	}
}

// The decoder state of a sweep stream, reused across responses: a
// gzip.Reader carries a flate decompressor with its 32 KiB window, and
// the scanner starts in a 64 KiB line buffer. A line longer than that
// makes the scanner allocate a larger buffer of its own, which is
// dropped with the scanner: the pool only ever holds 64 KiB buffers.
// Records are decoded out of the line, so no record aliases a buffer.
var (
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
	lineBuffers = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}
)

// sweepOnce performs one POST /sweep attempt.
func (c *Client) sweepOnce(ctx context.Context, body []byte) (*SweepResponse, error) {
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.Gzip {
		hreq.Header.Set("Accept-Encoding", "gzip")
	} else {
		// Explicit identity: without it Go's transport would negotiate
		// gzip on its own and the flag would mean nothing.
		hreq.Header.Set("Accept-Encoding", "identity")
	}
	resp, err := httpc.Do(hreq)
	if err != nil {
		// Connection-level failure: daemon not up yet or restarting.
		return nil, &transientError{err: err}
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable,
		resp.StatusCode >= 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &transientError{
			err:        fmt.Errorf("server %s: %s", resp.Status, bytes.TrimSpace(msg)),
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("server %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	var stream io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		gz := gzipReaders.Get().(*gzip.Reader)
		defer gzipReaders.Put(gz)
		if err := gz.Reset(resp.Body); err != nil {
			return nil, &transientError{err: fmt.Errorf("gzip response: %w", err)}
		}
		stream = gz
	}
	out := &SweepResponse{}
	var recs []Record
	sawSummary := false
	buf := lineBuffers.Get().(*[]byte)
	defer lineBuffers.Put(buf)
	sc := bufio.NewScanner(stream)
	sc.Buffer(*buf, 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("malformed response record: %w", err)
		}
		if c.OnRecord != nil {
			c.OnRecord(rec)
		}
		if rec.Type == "summary" {
			out.Summary = rec
			sawSummary = true
		} else {
			recs = append(recs, rec)
		}
	}
	if err := sc.Err(); err != nil {
		// Stream cut mid-response (daemon killed): whole-request retry.
		return nil, &transientError{err: fmt.Errorf("response stream interrupted: %w", err)}
	}
	if !sawSummary {
		return nil, &transientError{err: errors.New("response stream ended without summary record")}
	}
	if out.Summary.Total < 0 {
		return nil, fmt.Errorf("malformed summary record: %d experiments", out.Summary.Total)
	}
	// The server sends one record per requested experiment, so a valid
	// index is below both the summary's count and the number of records
	// received: an index off the wire can size nothing larger than the
	// stream itself.
	bound := min(out.Summary.Total, len(recs))
	for i := range recs {
		rec := &recs[i]
		if rec.Index < 0 || rec.Index >= bound {
			return nil, fmt.Errorf("malformed response record: index %d outside the %d reported experiments",
				rec.Index, bound)
		}
		for len(out.Results) <= rec.Index {
			out.Results = append(out.Results, nil)
		}
		out.Results[rec.Index] = rec
	}
	return out, nil
}

// parseRetryAfter parses a Retry-After header in seconds form; 0 when
// absent, unparseable or too large for a time.Duration.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs < 0 || secs > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
