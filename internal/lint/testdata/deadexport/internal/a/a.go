// Package a declares the exports the dead-export check must and must not
// flag.
package a

import "strconv"

// NoCaller is flagged: its only caller is itself.
func NoCaller(n int) int {
	if n == 0 {
		return 0
	}
	return NoCaller(n - 1)
}

// OnlyTested is flagged: only a_test.go calls it.
func OnlyTested() int { return 2 }

// Used is called by the module's own command.
func Used() int { return 3 }

// ForSecond is called only by the second module.
func ForSecond() int { return 4 }

// Level is a flag.Value that the module never names: it only passes a
// *Level to flag.Var, whose parameter is one.
type Level int

// String is half of flag.Value.
func (l *Level) String() string { return strconv.Itoa(int(*l)) }

// Set is the other half, reached only through flag.Value.
func (l *Level) Set(s string) error {
	n, err := strconv.Atoi(s)
	*l = Level(n)
	return err
}

// Box is generic; its method is called only on an instantiation.
type Box[T any] struct{ v T }

// Get is called as Box[int].Get.
func (b *Box[T]) Get() T { return b.v }
