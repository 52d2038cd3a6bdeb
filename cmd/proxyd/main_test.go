package main

import "testing"

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("s1=http://10.0.0.2:8080, s2=http://10.0.0.3:8080/,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].Name != "s1" || peers[1].URL != "http://10.0.0.3:8080" {
		t.Fatalf("parsed %+v", peers)
	}
	if peers, err := parsePeers(""); err != nil || peers != nil {
		t.Fatalf("empty spec: %v, %v", peers, err)
	}
	for _, bad := range []string{"s1", "=http://x", "s1="} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}
