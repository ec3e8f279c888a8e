module pmoctree/benchmark

go 1.22

require pmoctree v0.0.0

replace pmoctree => ../
