package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSubmitSpec holds the submit decoder to its contract on arbitrary
// bodies: no input panics, an accepted body holds one JSON value, and a
// spec that decodes and passes Validate survives encode → decode
// unchanged, so the job the store records is the job that was
// submitted. It opens no store and runs nothing. The committed corpus
// holds a valid run, sim and sweep spec, an unknown field, a file path
// field, two spec fields at once, a truncated body, a sweep spec
// followed by a run spec and garbage, which once decoded as the sweep
// alone, and a sweep with an empty experiment list, which once decoded
// to an empty slice that its encoding read back as nil.
func FuzzSubmitSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a body that is not one JSON value: %q", data)
		}
		if spec.Validate() != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := decodeSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("encoded spec does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec of %q, encoded as %s", data, enc)
		}
	})
}
