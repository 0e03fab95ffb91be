// Command second calls the first module through its replace directive.
package main

import (
	"fmt"

	"deadfix/internal/a"
)

func main() { fmt.Println(a.ForSecond()) }
