// Command app is the first module's caller.
package main

import (
	"flag"
	"fmt"

	"deadfix/internal/a"
)

func main() {
	var l a.Level
	flag.Var(&l, "level", "a level")
	flag.Parse()
	var b a.Box[int]
	fmt.Println(a.Used(), b.Get())
}
