package routesvc

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"iadm/internal/core"
)

// The route wire codec: every /route and /route/batch body in the repo —
// the Handler's, the Client's and the fleet router's — is read and
// written here, so the wire shape of RouteJSON and BatchJSON has one
// definition. Responses carry no path: by Lemma 2.1 and Theorem 3.1 a tag
// and its source fix the route, so a client that wants the switches
// rebuilds them with core.ParseTag(n, tag) and Tag.Follow(p, src).
//
// The encoders append into pooled buffers with strconv.Append*, in the
// struct tags' field order and omitempty rules. The decoders scan a body
// in one pass when it has the shape these encoders and json.Marshal
// produce: known lower-case keys, integer literals, printable-ASCII
// strings without escapes, booleans and whitespace. Any other body
// (escapes, non-ASCII, null, unknown or differently-cased keys, a repeated
// array, a syntax or type error) goes to json.Unmarshal, so the decoders
// accept exactly what encoding/json accepts and decode equal values.
// FuzzRouteCodec holds both halves to encoding/json.

// jsonContentType is the Content-Type of every JSON body, shared so
// setting it does not allocate.
var jsonContentType = []string{"application/json"}

// bodyPool recycles the buffers route bodies are read into and built in.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads all of r into dst's backing array (grown as needed).
func readBody(r io.Reader, dst []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst[:0])
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// read reads all of r into a pooled buffer and decodes it.
func read(r io.Reader, decode func([]byte) error) error {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	var err error
	if *buf, err = readBody(r, *buf); err != nil {
		return err
	}
	return decode(*buf)
}

// ReadRoute reads a /route body into the zero RouteJSON rj.
func ReadRoute(r io.Reader, rj *RouteJSON) error {
	return read(r, func(data []byte) error { return decodeRoute(data, rj) })
}

// ReadBatch reads a /route/batch body into the zero BatchJSON b.
func ReadBatch(r io.Reader, b *BatchJSON) error {
	return read(r, func(data []byte) error { return decodeBatch(data, b) })
}

// write sends the JSON body appendBody builds in a pooled buffer.
func write(w http.ResponseWriter, code int, appendBody func([]byte) []byte) {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	*buf = appendBody((*buf)[:0])
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(*buf)
}

// WriteRoute writes one route response.
func WriteRoute(w http.ResponseWriter, rj *RouteJSON) {
	write(w, http.StatusOK, func(b []byte) []byte { return append(appendItem(b, rj, core.Tag{}), '\n') })
}

// WriteBatch writes a batch response: b's Responses and Epoch.
func WriteBatch(w http.ResponseWriter, b *BatchJSON) {
	write(w, http.StatusOK, func(out []byte) []byte {
		out = appendItems(append(out, `{"responses":[`...), len(b.Responses), func(out []byte, i int) []byte {
			return appendItem(out, &b.Responses[i], core.Tag{})
		})
		return appendResponsesEnd(out, b.Epoch)
	})
}

// WriteError writes the error body {"error":msg,"code":code} (code
// omitted when empty), with a Retry-After header when retryAfter > 0.
func WriteError(w http.ResponseWriter, status int, msg, code string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	write(w, status, func(b []byte) []byte {
		b = appendString(append(b, `{"error":`...), msg)
		if code != "" {
			b = appendString(append(b, `,"code":`...), code)
		}
		return append(b, "}\n"...)
	})
}

// appendItems appends n comma-separated items.
func appendItems(b []byte, n int, item func([]byte, int) []byte) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = item(b, i)
	}
	return b
}

// appendResponsesEnd closes a batch response's items with its epoch.
func appendResponsesEnd(b []byte, epoch uint64) []byte {
	return append(strconv.AppendUint(append(b, `],"epoch":`...), epoch, 10), "}\n"...)
}

// appendRequests appends the /route/batch request body for reqs.
func appendRequests(b []byte, reqs []RouteJSON) []byte {
	b = appendItems(append(b, `{"requests":[`...), len(reqs), func(b []byte, i int) []byte {
		return appendItem(b, &reqs[i], core.Tag{})
	})
	return append(b, "]}"...)
}

// appendItem appends r as encoding/json marshals it, except that a tag
// with stages is rendered from its bits in place of r.Tag.
func appendItem(b []byte, r *RouteJSON, tag core.Tag) []byte {
	b = append(b, '{')
	if r.Net != "" {
		b = append(appendString(append(b, `"net":`...), r.Net), ',')
	}
	b = strconv.AppendInt(append(b, `"src":`...), int64(r.Src), 10)
	b = strconv.AppendInt(append(b, `,"dst":`...), int64(r.Dst), 10)
	b = appendString(append(b, `,"scheme":`...), r.Scheme)
	if tag.Stages() > 0 {
		b = append(tag.Append(append(b, `,"tag":"`...)), '"')
	} else if r.Tag != "" {
		b = appendString(append(b, `,"tag":`...), r.Tag)
	}
	if r.Epoch != 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	}
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	if r.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	if r.Error != "" {
		b = appendString(append(b, `,"error":`...), r.Error)
	}
	if r.Code != "" {
		b = appendString(append(b, `,"code":`...), r.Code)
	}
	return append(b, '}')
}

// appendResult appends the wire item of one request served on net.
func appendResult(b []byte, net string, res *Result) []byte {
	r := RouteJSON{Net: net, Src: res.Src, Dst: res.Dst, Scheme: res.Scheme.String(),
		Epoch: res.Epoch, Cached: res.Cached, Coalesced: res.Coalesced}
	tag := res.Tag
	if res.Err != nil {
		r.Error, r.Code, tag = res.Err.Error(), errCode(res.Err), core.Tag{}
	}
	return appendItem(b, &r, tag)
}

// appendString appends s as a JSON string: verbatim when it is printable
// ASCII without quotes or backslashes (every tag, scheme and code, and
// typical net names), else quoted by encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// decodeRoute decodes data into the zero RouteJSON r as json.Unmarshal
// would.
func decodeRoute(data []byte, r *RouteJSON) error {
	s := scanner{data: data}
	if s.route(r) && s.end() {
		return nil
	}
	*r = RouteJSON{}
	return json.Unmarshal(data, r)
}

// decodeBatch decodes data into b as json.Unmarshal would into a zero
// BatchJSON, except that it may reuse the backing array of b.Requests
// (whose old contents are ignored).
func decodeBatch(data []byte, b *BatchJSON) error {
	s := scanner{data: data}
	if s.batch(b) && s.end() {
		return nil
	}
	*b = BatchJSON{}
	return json.Unmarshal(data, b)
}

// scanner is the decoders' one-pass fast path. A method returning false
// means the body is not of the fast shape (or not valid at all) and must
// go to encoding/json; the scanner itself rejects nothing.
type scanner struct {
	data []byte
	i    int
	net  string // last net name decoded, reused while it repeats
}

func (s *scanner) ws() {
	for s.i < len(s.data) && (s.data[s.i] == ' ' || s.data[s.i] == '\t' || s.data[s.i] == '\n' || s.data[s.i] == '\r') {
		s.i++
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.data)
}

// object scans {"key":value,...}, calling field with each key and the
// scanner at its value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		s.ws()
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		s.ws()
		if !field(key) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// str scans a string of printable ASCII without escapes.
func (s *scanner) str() ([]byte, bool) {
	if s.i >= len(s.data) || s.data[s.i] != '"' {
		return nil, false
	}
	for i := s.i + 1; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			v := s.data[s.i+1 : i]
			s.i = i + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text scans a string into p, reusing the scheme names and the last net
// name instead of allocating.
func (s *scanner) text(p *string) bool {
	b, ok := s.str()
	switch {
	case !ok:
	case string(b) == "ssdt":
		*p = "ssdt"
	case string(b) == "tsdt":
		*p = "tsdt"
	case string(b) == s.net:
		*p = s.net
	default:
		*p = string(b)
	}
	return ok
}

// int scans into *p an integer literal without fraction or exponent, with
// a sign only if signed, and well inside the int64 range.
func (s *scanner) int(p *int64, signed bool) bool {
	neg := signed && s.i < len(s.data) && s.data[s.i] == '-'
	if neg {
		s.i++
	}
	start, v := s.i, int64(0)
	for ; s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9'; s.i++ {
		if v > math.MaxInt64/10-1 {
			return false
		}
		v = v*10 + int64(s.data[s.i]-'0')
	}
	if neg {
		v = -v
	}
	*p = v
	return s.i > start && (s.i == start+1 || s.data[start] != '0')
}

func (s *scanner) bool(p *bool) bool {
	for _, lit := range [...]string{"false", "true"} {
		if bytes.HasPrefix(s.data[s.i:], []byte(lit)) {
			*p, s.i = lit == "true", s.i+len(lit)
			return true
		}
	}
	return false
}

func (s *scanner) route(r *RouteJSON) bool {
	var v int64
	return s.object(func(key []byte) bool {
		ok := false
		switch string(key) {
		case "net":
			ok = s.text(&r.Net)
			s.net = r.Net
		case "src":
			ok = s.int(&v, true)
			r.Src = int(v)
		case "dst":
			ok = s.int(&v, true)
			r.Dst = int(v)
		case "scheme":
			ok = s.text(&r.Scheme)
		case "tag":
			ok = s.text(&r.Tag)
		case "epoch":
			ok = s.int(&v, false)
			r.Epoch = uint64(v)
		case "cached":
			ok = s.bool(&r.Cached)
		case "coalesced":
			ok = s.bool(&r.Coalesced)
		case "error":
			ok = s.text(&r.Error)
		case "code":
			ok = s.text(&r.Code)
		}
		return ok
	})
}

func (s *scanner) batch(b *BatchJSON) bool {
	var v int64
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "requests":
			return s.routes(&b.Requests)
		case "responses":
			return s.routes(&b.Responses)
		case "epoch":
			ok := s.int(&v, false)
			b.Epoch = uint64(v)
			return ok
		}
		return false
	})
}

// routes scans an array of route objects into *p, reusing its backing
// array. An array following a non-empty one for the same key is left to
// encoding/json, which decodes it over the first.
func (s *scanner) routes(p *[]RouteJSON) bool {
	if len(*p) > 0 || !s.next('[') {
		return false
	}
	items := (*p)[:0]
	if items == nil {
		items = []RouteJSON{} // [] decodes to empty, not nil
	}
	for !s.next(']') {
		if len(items) > 0 && !s.next(',') {
			return false
		}
		items = append(items, RouteJSON{})
		if !s.route(&items[len(items)-1]) {
			return false
		}
	}
	*p = items
	return true
}
