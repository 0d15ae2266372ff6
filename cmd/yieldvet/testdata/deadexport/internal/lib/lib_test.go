package lib

import "testing"

func TestUses(t *testing.T) {
	Hook()
	if TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
}
