module lambdadb/cmd/lambdabench

go 1.22

require lambdadb v0.0.0

replace lambdadb => ../..
