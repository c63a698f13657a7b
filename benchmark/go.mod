module tempo/benchmark

go 1.24

require tempo v0.0.0

replace tempo => ../
