//go:build race

package main

// raceBuild is true under the race detector, which slows the system
// several times over: the open-loop workloads then miss their schedule,
// so the smoke test checks them for data races only.
const raceBuild = true
