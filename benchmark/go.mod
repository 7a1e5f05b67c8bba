module interweave/benchmark

go 1.22

require interweave v0.0.0

replace interweave => ../
