package routesvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// codecSeeds are wire bodies the decoders must treat exactly as
// encoding/json does: the fast shape, and every way out of it.
var codecSeeds = []string{
	`{"requests":[{"src":1,"dst":2,"scheme":"ssdt"},{"net":"p0","src":3,"dst":4,"scheme":"tsdt"}]}`,
	`{"responses":[{"src":1,"dst":2,"scheme":"ssdt","tag":"0100","epoch":3,"cached":true}],"epoch":3}` + "\n",
	` { "requests" : [ { "src" : 1 , "dst" : 2 } ] } ` + "\t\r\n",                // whitespace
	`{"requests":[{"scheme":"tsdt","dst":2,"src":1,"net":"a"}],"epoch":0}`,       // key order
	`{"requests":[{"src":1,"dst":2,"hop":[1,{"x":null}],"path":[1,2,3]}]}`,       // unknown keys
	`{"requests":[{"src":1,"dst":2,"net":null,"cached":null}],"responses":null}`, // null fields
	`{"requests":null}`, `null`, `{"requests":[null,{"src":1}]}`,
	`{"requests":[]}`, `{"requests":[],"requests":[{"src":2}]}`, `{}`,
	`{"requests":[{"src":1,"src":2,"dst":3,"dst":4}]}`,                                                // duplicate scalar keys
	`{"requests":[{"src":1,"dst":9},{"src":2}],"requests":[{"dst":5}]}`,                               // duplicate array keys
	`{"Requests":[{"SRC":1,"Dst":2,"sCheme":"ssdt","ſrc":7}]}`,                                        // case-insensitive keys
	`{"requests":[{"net":"a\"b\\c\/\u00e9\ud83d\ude00\ud800","src":1,"dst":2,"scheme":"\u0073sdt"}]}`, // escapes
	"{\"requests\":[{\"net\":\"\xff\xfe\",\"src\":1}]}",                                               // invalid UTF-8
	"{\"requests\":[{\"net\":\"a\x01\",\"src\":1}]}",                                                  // control byte
	`{"requests":[{"src":1.0}]}`, `{"requests":[{"src":1e2}]}`, `{"requests":[{"src":-0}]}`,           // non-integer numbers
	`{"requests":[{"src":01}]}`, `{"requests":[{"src":9223372036854775807,"dst":-9223372036854775808}]}`,
	`{"requests":[{"src":9223372036854775808}]}`, `{"epoch":-1}`, `{"epoch":18446744073709551615}`,
	`{"requests":[{"src":"1"}]}`, `{"requests":[{"cached":1}]}`, `{"requests":{}}`, `[]`, `"x"`,
	`{"requests":[{"src":1,}]}`, `{"requests":[{"src":1}],}`, `{"requests":[{"src":1}]} x`, ``, `{`,
	`{"src":5,"dst":6,"scheme":"tsdt","tag":"010011","epoch":2,"coalesced":true,"error":"e","code":"c"}`,
}

// resultFrom builds an arbitrary served result from fuzz inputs.
func resultFrom(msg string, src, dst int, bits uint64, stages uint8, epoch uint64, flags uint8) Result {
	n := 1 + int(stages%10)
	p := topology.MustParams(1 << n)
	mask := uint64(p.Size() - 1)
	res := Result{
		Src: src, Dst: dst, Scheme: Scheme(flags & 1), Epoch: epoch,
		Tag:    core.TagFromState(p, int(bits&mask), bits>>n&mask),
		Cached: flags&2 != 0, Coalesced: flags&4 != 0,
	}
	if flags&8 != 0 {
		res.Err = [...]error{
			errors.New(msg), fmt.Errorf("%w: %s", ErrOverload, msg),
			fmt.Errorf("%w: %s", ErrInvalid, msg), fmt.Errorf("%s: %w", msg, core.ErrNoPath),
		}[flags>>4&3]
	}
	return res
}

// viaJSON is what encoding/json makes of v on a round trip; it is the
// reference for the encoders, since a string with invalid UTF-8 cannot
// survive any JSON encoding unchanged.
func viaJSON[T any](t *testing.T, v T) T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func FuzzRouteCodec(f *testing.F) {
	for i, seed := range codecSeeds {
		f.Add([]byte(seed), []string{"", "p0", `a"b`, "x\ny\u2028\xff<&>"}[i%4], "no path", i*37-5, i*11, uint64(i)*0x9e3779b97f4a7c15, uint8(i), uint64(i%3), uint8(i*29))
	}
	f.Fuzz(func(t *testing.T, data []byte, net, msg string, src, dst int, bits uint64, stages uint8, epoch uint64, flags uint8) {
		// Decoders: accept exactly what encoding/json accepts, equal values.
		var wantB, gotB BatchJSON
		errW, errG := json.Unmarshal(data, &wantB), decodeBatch(data, &gotB)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("batch %q: encoding/json err %v, codec err %v", data, errW, errG)
		}
		if errW == nil && !reflect.DeepEqual(wantB, gotB) {
			t.Fatalf("batch %q:\nencoding/json %#v\ncodec         %#v", data, wantB, gotB)
		}
		// Over a used slice, as the handler decodes into its pooled one.
		used := []RouteJSON{{Net: "old", Src: 9, Tag: "10", Cached: true}, {Error: "old", Code: "old"}}
		inPlace := BatchJSON{Requests: used[:0]}
		if err := decodeBatch(data, &inPlace); (err == nil) != (errW == nil) {
			t.Fatalf("batch %q in place: err %v, encoding/json err %v", data, err, errW)
		}
		if errW == nil && (!slices.Equal(wantB.Requests, inPlace.Requests) || !reflect.DeepEqual(wantB.Responses, inPlace.Responses) || wantB.Epoch != inPlace.Epoch) {
			t.Fatalf("batch %q in place:\nencoding/json %#v\ncodec         %#v", data, wantB, inPlace)
		}
		var wantR, gotR RouteJSON
		errW, errG = json.Unmarshal(data, &wantR), decodeRoute(data, &gotR)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("route %q: encoding/json err %v, codec err %v", data, errW, errG)
		}
		if errW == nil && wantR != gotR {
			t.Fatalf("route %q:\nencoding/json %#v\ncodec         %#v", data, wantR, gotR)
		}

		// Encoders: encoding/json reads back the fields they were given.
		res := resultFrom(msg, src, dst, bits, stages, epoch, flags)
		item := RouteJSON{Net: net, Src: res.Src, Dst: res.Dst, Scheme: res.Scheme.String(),
			Epoch: res.Epoch, Cached: res.Cached, Coalesced: res.Coalesced}
		if res.Err != nil {
			item.Error, item.Code = res.Err.Error(), errCode(res.Err)
		} else {
			item.Tag = res.Tag.String()
		}
		want := viaJSON(t, item)
		for _, body := range [][]byte{appendResult(nil, net, &res), appendItem(nil, &item, core.Tag{})} {
			var got RouteJSON
			if err := json.Unmarshal(body, &got); err != nil || got != want {
				t.Fatalf("item %s: decoded %#v (err %v), want %#v", body, got, err, want)
			}
			var fast RouteJSON
			if err := decodeRoute(body, &fast); err != nil || fast != want {
				t.Fatalf("item %s: codec decoded %#v (err %v), want %#v", body, fast, err, want)
			}
		}
		var gotReq BatchJSON
		if err := json.Unmarshal(appendRequests(nil, []RouteJSON{item, item}), &gotReq); err != nil ||
			!slices.Equal(gotReq.Requests, []RouteJSON{want, want}) {
			t.Fatalf("batch request: %#v (err %v)", gotReq, err)
		}
		rec := httptest.NewRecorder()
		WriteBatch(rec, &BatchJSON{Responses: []RouteJSON{item}, Epoch: epoch})
		var gotResp BatchJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &gotResp); err != nil ||
			!slices.Equal(gotResp.Responses, []RouteJSON{want}) || gotResp.Epoch != epoch {
			t.Fatalf("batch response %s: %#v (err %v)", rec.Body.Bytes(), gotResp, err)
		}
		rec = httptest.NewRecorder()
		WriteError(rec, 400, msg, net, 0)
		var gotErr errJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &gotErr); err != nil || gotErr != viaJSON(t, errJSON{Error: msg, Code: net}) {
			t.Fatalf("error body %s: %#v (err %v)", rec.Body.Bytes(), gotErr, err)
		}
	})
}
