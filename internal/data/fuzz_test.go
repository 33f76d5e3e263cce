package data

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseManifest throws arbitrary bytes at the manifest decoder. The
// invariants: parsing never panics, and a manifest it accepts survives
// json.MarshalIndent (WriteManifest's encoding) and a second ParseManifest
// unchanged.
func FuzzParseManifest(f *testing.F) {
	dir := writeDataset(f, 4, 5, 2, 2, 1)
	seed, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated
	f.Add([]byte(`{"schema":"cosmoflow-manifest/v1","dim":4,"splits":null}`))
	f.Add([]byte(`{"schema":"cosmoflow-manifest/v1","dim":4,"splits":{"train":[{"file":"../x","samples":1}]}}`))
	f.Add([]byte(`{"schema":"cosmoflow-manifest/v1","dim":4,"splits":{"train":[{"file":"a","samples":0}]}}`))
	f.Add([]byte(`{"schema":"cosmoflow-manifest/v1","dim":-1}`))
	f.Add([]byte(`{"SCHEMA":"cosmoflow-manifest/v1","Dim":4,"splits":{"":[{"File":"é","samples":9,"bytes":-1,"crc32c":4294967295}]}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		enc, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		again, err := ParseManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the manifest:\nfirst  %+v\nsecond %+v", m, again)
		}
	})
}
