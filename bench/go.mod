module agentrec/bench

go 1.24

require agentrec v0.0.0

replace agentrec => ../
