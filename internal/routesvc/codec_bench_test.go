package routesvc

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchBatchBody is a 200-item /route/batch body for N=1024 in the
// benchmark mix: 90% SSDT over uniform pairs, 10% TSDT over a small hot
// set.
func benchBatchBody(b *testing.B) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	in := BatchJSON{Requests: make([]RouteJSON, 200)}
	for i := range in.Requests {
		rq := RouteJSON{Src: rng.Intn(1024), Dst: rng.Intn(1024), Scheme: "ssdt"}
		if rng.Intn(10) == 0 {
			rq = RouteJSON{Src: rng.Intn(16), Dst: rng.Intn(16), Scheme: "tsdt"}
		}
		in.Requests[i] = rq
	}
	body, err := json.Marshal(in)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// discardWriter is a ResponseWriter that drops the body, so the benchmark
// measures the handler rather than a recorder's buffer growth.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkHandlerBatch serves one 200-item batch per op through the
// Handler on a prewarmed N=1024 service: decode, RouteBatch, encode.
func BenchmarkHandlerBatch(b *testing.B) {
	svc := mustService(b, Config{N: 1024, Prewarm: true})
	h := NewHandler(svc)
	body := benchBatchBody(b)
	req := httptest.NewRequest(http.MethodPost, "/route/batch", nil)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		req.Body = io.NopCloser(bytes.NewReader(body))
		h.routeBatch(w, req)
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*200), "ns/route")
}

// BenchmarkDecodeBatch and BenchmarkEncodeBatch split the codec's share.
func BenchmarkDecodeBatch(b *testing.B) {
	body := benchBatchBody(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	var out BatchJSON
	for i := 0; i < b.N; i++ {
		out.Requests = out.Requests[:0]
		if err := decodeBatch(body, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBatch(b *testing.B) {
	svc := mustService(b, Config{N: 1024, Prewarm: true})
	var in BatchJSON
	if err := json.Unmarshal(benchBatchBody(b), &in); err != nil {
		b.Fatal(err)
	}
	reqs := make([]Request, len(in.Requests))
	for i, rq := range in.Requests {
		sc, _ := ParseScheme(rq.Scheme)
		reqs[i] = Request{Src: rq.Src, Dst: rq.Dst, Scheme: sc}
	}
	results, err := svc.RouteBatch(reqs)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for k := range results {
			buf = appendResult(buf, "", &results[k])
		}
	}
	b.SetBytes(int64(len(buf)))
}
