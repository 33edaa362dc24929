module foresight/benchmark

go 1.22

require foresight v0.0.0

replace foresight => ../
