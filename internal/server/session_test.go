package server

import (
	"strings"
	"testing"
)

func TestSessionIDFormat(t *testing.T) {
	id, err := newSessionID()
	if err != nil {
		t.Fatal(err)
	}
	if len(id) != 36 || strings.Count(id, "-") != 4 || id[8] != '-' || id[23] != '-' {
		t.Errorf("session id %q is not in canonical UUID form", id)
	}
	if id[14] != '4' {
		t.Errorf("version nibble = %c, want 4", id[14])
	}
	if !strings.ContainsRune("89ab", rune(id[19])) {
		t.Errorf("variant nibble = %c, want one of 89ab", id[19])
	}
}

func TestSessionIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id, err := newSessionID()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate session id %s", id)
		}
		seen[id] = true
	}
}
