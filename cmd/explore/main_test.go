package main

import "testing"

// TestFrontierWriterFor pins the -frontier-out format selection: extension
// picks the serializer, anything else fails before the run starts.
func TestFrontierWriterFor(t *testing.T) {
	if w, err := frontierWriterFor(""); w != nil || err != nil {
		t.Errorf("empty name: writer non-nil=%v, err %v; want nil, nil", w != nil, err)
	}
	for _, ok := range []string{"frontier.json", "out/frontier.csv"} {
		w, err := frontierWriterFor(ok)
		if w == nil || err != nil {
			t.Errorf("%s: writer non-nil=%v, err %v; want serializer", ok, w != nil, err)
		}
	}
	for _, bad := range []string{"frontier.txt", "frontier", "frontier.jsonl"} {
		if _, err := frontierWriterFor(bad); err == nil {
			t.Errorf("%s: accepted, want extension error", bad)
		}
	}
}
