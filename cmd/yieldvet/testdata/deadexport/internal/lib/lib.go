// Package lib holds one export per case of the deadexport check.
package lib

import "fmt"

// Aliased is used only through the facade's alias.
type Aliased struct{}

// BenchOnly is called only from the nested module.
func BenchOnly() int { return 1 }

// Impl's methods are reached only through interfaces.
type Impl struct{}

// Do satisfies the facade's Doer.
func (Impl) Do() {}

// String satisfies fmt.Stringer.
func (Impl) String() string { return fmt.Sprint("impl") }

// Hook is a test hook.
//
//yield:allow(deadexport) test hook: only lib_test.go calls it
func Hook() {}

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 2 }
