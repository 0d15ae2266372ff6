// Command nested is a nested module that calls the parent's internal
// package.
package main

import "example.com/fix/internal/lib"

func main() { println(lib.BenchOnly()) }
