package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Frame is the request frame of the serving tier: the daemon
// (Server.Handler) and the cluster coordinator (internal/cluster) both run
// every request inside one. It mints the request ID and sets it as a
// response header, counts responses by status class, turns a handler
// panic into a 500 JSON error, writes the access log, reads size-limited
// bodies, and writes JSON and error bodies. The tiers differ only in the
// ID prefix and header.
//
// Set the exported fields before the first request; the zero counters are
// ready to use. A Frame must not be copied after first use.
type Frame struct {
	IDPrefix     string      // request-ID prefix: "r-" on workers, "c-" on coordinators
	IDHeader     string      // response header carrying the request ID
	MaxBodyBytes int64       // request-body limit; larger bodies answer 413
	Logger       *log.Logger // access, error and panic lines

	seq                   atomic.Int64
	ok2xx, err4xx, err5xx atomic.Int64
	panics                atomic.Int64
}

type ctxKey int

const reqIDKey ctxKey = 0

// requestID returns the request's ID ("r-000042"), threaded through the
// context by Frame.Wrap.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey).(string)
	return id
}

// statusWriter captures the response status for logging and the
// status-class counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Wrap runs next inside the frame. A panic other than http.ErrAbortHandler
// answers 500 with an ErrorResponse of kind internal carrying the request
// ID; http.ErrAbortHandler is re-raised so net/http aborts the connection.
func (f *Frame) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%s%06d", f.IDPrefix, f.seq.Add(1))
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey, id))
		w.Header().Set(f.IDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				f.panics.Add(1)
				f.Logger.Printf("%s PANIC %s %s: %v\n%s", id, r.Method, r.URL.Path, p, debug.Stack())
				if sw.status == 0 {
					f.WriteError(sw, r, http.StatusInternalServerError, &ErrorResponse{
						Error: fmt.Sprintf("internal error: %v", p), Kind: KindInternal, RequestID: id,
					})
				}
			}
			switch {
			case sw.status >= 500:
				f.err5xx.Add(1)
			case sw.status >= 400:
				f.err4xx.Add(1)
			default:
				f.ok2xx.Add(1)
			}
			f.Logger.Printf("%s %s %s -> %d (%v)", id, r.Method, r.URL.Path, sw.status, time.Since(t0).Round(time.Microsecond))
		}()
		next.ServeHTTP(sw, r)
	})
}

// Responses snapshots the status-class counters.
func (f *Frame) Responses() ResponseCounts {
	return ResponseCounts{OK2xx: f.ok2xx.Load(), Err4xx: f.err4xx.Load(), Err5xx: f.err5xx.Load()}
}

// Panics reports the handler panics recovered to 500.
func (f *Frame) Panics() int64 { return f.panics.Load() }

// Refusal is a request turned away before any work: the status to answer
// and the kind and message of its ErrorResponse.
type Refusal struct {
	Status int
	Kind   string
	Msg    string
}

func (e *Refusal) Error() string { return e.Msg }

// ReadBody reads the size-limited request body. A failure is a *Refusal:
// 413 past MaxBodyBytes, 400 for a broken read.
func (f *Frame) ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	// A declared length sizes the buffer once; the limit still applies to
	// what arrives.
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= f.MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, f.MaxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &Refusal{http.StatusRequestEntityTooLarge, KindRequest,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return nil, &Refusal{http.StatusBadRequest, KindRequest, fmt.Sprintf("reading request: %v", err)}
	}
	return buf.Bytes(), nil
}

// DecodeRequest decodes a request body into v. The body must hold exactly
// one JSON value: trailing data is malformed like any other syntax error.
// A failure is a 400 *Refusal.
func DecodeRequest(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return &Refusal{http.StatusBadRequest, KindRequest, fmt.Sprintf("malformed request: %v", err)}
	}
	return nil
}

// render is the JSON encoding of every response body: indented, with a
// trailing newline.
func render(v any) ([]byte, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	return append(body, '\n'), err
}

// writeBody writes a rendered JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// WriteJSON renders v and writes it with status.
func (f *Frame) WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := render(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, body)
}

// WriteError logs and writes an error body. A 429 tells the client when to
// come back: Retry-After is set unless the handler set it (cluster
// coordinators forward a worker's own).
func (f *Frame) WriteError(w http.ResponseWriter, r *http.Request, status int, resp *ErrorResponse) {
	f.Logger.Printf("%s error %d %s: %s", requestID(r.Context()), status, resp.Kind, resp.Error)
	if status == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	f.WriteJSON(w, status, resp)
}

// Refuse writes err as an error body: a *Refusal with its own status and
// kind, any other error as 400 of kind request.
func (f *Frame) Refuse(w http.ResponseWriter, r *http.Request, err error) {
	ref := &Refusal{http.StatusBadRequest, KindRequest, err.Error()}
	errors.As(err, &ref)
	f.WriteError(w, r, ref.Status, &ErrorResponse{Error: ref.Msg, Kind: ref.Kind})
}
