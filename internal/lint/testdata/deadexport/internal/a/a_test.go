package a

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 2 {
		t.Fatal("OnlyTested")
	}
}
