package main

import "fixture/lib"

func main() {
	lib.Used()
	var r lib.Runner = lib.Live{}
	r.Run()
}
