module lightne/benchmark

go 1.22

require lightne v0.0.0

replace lightne => ../
