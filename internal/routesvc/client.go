package routesvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"iadm/internal/core"
)

// Client is a typed HTTP client for the Handler wire API, shared by the
// fleet router's backend connections and the load generator. Route
// bodies go through the wire codec in pooled buffers, so steady-state
// traffic does not allocate a fresh buffer per call, and the underlying
// Transport is tuned for many concurrent keep-alive connections to one
// host.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for one backend base URL ("http://host:port").
// timeout bounds each call end-to-end; 0 means 10s.
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{base: base, hc: &http.Client{Transport: tr, Timeout: timeout}}
}

// APIError is a non-2xx response decoded from the wire error body.
type APIError struct {
	Status     int
	Code       string // wire error code: overload, draining, invalid, unroutable
	Msg        string
	RetryAfter int // seconds, from the 429 Retry-After header (0 if absent)
}

func (e *APIError) Error() string {
	return fmt.Sprintf("routesvc: backend status %d (%s): %s", e.Status, e.Code, e.Msg)
}

// PostJSON marshals v, POSTs it to path, and decodes the 2xx response
// into out (skipped when out is nil). Non-2xx responses return *APIError.
func (c *Client) PostJSON(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("routesvc: encode %s body: %w", path, err)
	}
	return c.post(path, bytes.NewReader(body), func(r io.Reader) error {
		if out == nil {
			return nil
		}
		return json.NewDecoder(r).Decode(out)
	})
}

// post POSTs body to path and hands a 2xx response body to decode.
func (c *Client) post(path string, body io.Reader, decode func(io.Reader) error) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, body)
	if err != nil {
		return err
	}
	req.Header["Content-Type"] = jsonContentType
	return c.do(req, decode)
}

// GetJSON GETs path and decodes the 2xx response into out.
func (c *Client) GetJSON(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, func(r io.Reader) error { return json.NewDecoder(r).Decode(out) })
}

func (c *Client) do(req *http.Request, decode func(io.Reader) error) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode}
		var body errJSON
		if err := json.NewDecoder(resp.Body).Decode(&body); err == nil {
			apiErr.Code, apiErr.Msg = body.Code, body.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			_, _ = fmt.Sscanf(ra, "%d", &apiErr.RetryAfter)
		}
		return apiErr
	}
	if err := decode(resp.Body); err != nil {
		return fmt.Errorf("routesvc: decode %s response: %w", req.URL.Path, err)
	}
	return nil
}

// Health fetches /healthz. A draining backend answers 503 with a valid
// body; that body is returned alongside the *APIError so probes can
// distinguish "down" from "draining".
func (c *Client) Health() (HealthJSON, error) {
	var out HealthJSON
	req, err := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return out, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if decErr := json.NewDecoder(resp.Body).Decode(&out); decErr != nil && resp.StatusCode/100 == 2 {
		return out, fmt.Errorf("routesvc: decode /healthz response: %w", decErr)
	}
	if resp.StatusCode/100 != 2 {
		return out, &APIError{Status: resp.StatusCode, Code: out.Status}
	}
	return out, nil
}

// Route requests one tag.
func (c *Client) Route(net string, src, dst int, scheme Scheme) (RouteJSON, error) {
	return c.RouteWire(RouteJSON{Net: net, Src: src, Dst: dst, Scheme: scheme.String()})
}

// RouteWire sends one route request as given, its scheme name unparsed
// (the fleet router forwards requests this way).
func (c *Client) RouteWire(in RouteJSON) (RouteJSON, error) {
	var out RouteJSON
	err := c.postRoute("/route", func(b []byte) []byte { return appendItem(b, &in, core.Tag{}) },
		func(r io.Reader) error { return ReadRoute(r, &out) })
	return out, err
}

// RouteBatch requests many tags in one round trip.
func (c *Client) RouteBatch(reqs []RouteJSON) (BatchJSON, error) {
	var out BatchJSON
	err := c.postRoute("/route/batch", func(b []byte) []byte { return appendRequests(b, reqs) },
		func(r io.Reader) error { return ReadBatch(r, &out) })
	return out, err
}

// postRoute POSTs the body appendBody builds in a pooled buffer.
func (c *Client) postRoute(path string, appendBody func([]byte) []byte, decode func(io.Reader) error) error {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	*buf = appendBody((*buf)[:0])
	return c.post(path, bytes.NewReader(*buf), decode)
}

// Fault reports faults on net; the response carries the backend's new
// epoch (the fan-out acknowledgement the fleet router collects).
func (c *Client) Fault(net string, links, switches []string) (MutateJSON, error) {
	var out MutateJSON
	err := c.PostJSON("/fault", MutateJSON{Net: net, Links: links, Switches: switches}, &out)
	return out, err
}

// Repair reports link repairs on net.
func (c *Client) Repair(net string, links []string) (MutateJSON, error) {
	var out MutateJSON
	err := c.PostJSON("/repair", MutateJSON{Net: net, Links: links}, &out)
	return out, err
}

// Metrics scrapes /metrics.
func (c *Client) Metrics() (MetricsJSON, error) {
	var out MetricsJSON
	err := c.GetJSON("/metrics", &out)
	return out, err
}
