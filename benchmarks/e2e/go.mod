module unidrive/benchmarks/e2e

go 1.23

require unidrive v0.0.0

replace unidrive => ../..
