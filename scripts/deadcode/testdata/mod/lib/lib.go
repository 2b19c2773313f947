// Package lib holds one declaration of each kind the finder must judge.
package lib

// Runner is called through the interface by main.
type Runner interface{ Run() }

// Live is reached: main calls its Run through Runner.
type Live struct{}

func (Live) Run() {}

// Dead implements Runner too, but no run builds one.
type Dead struct{}

func (Dead) Run() {}

func Used() {}

// OnlyTests is named only by lib_test.go.
func OnlyTests() {}

// Allowed is dead and listed in the allow file.
func Allowed() {}
