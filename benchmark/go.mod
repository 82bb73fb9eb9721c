module streams/benchmark

go 1.22

require streams v0.0.0

replace streams => ../
