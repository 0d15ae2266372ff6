// Package fix is the module's facade over its internal package.
package fix

import "example.com/fix/internal/lib"

// Alias re-exports a lib type: the alias is its only use.
type Alias = lib.Aliased

// Doer is a module interface lib.Impl implements without any conversion.
type Doer interface{ Do() }

// Default names lib.Impl but calls none of its methods.
var Default lib.Impl
