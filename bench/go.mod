module resched/bench

go 1.22

require resched v0.0.0

replace resched => ../
