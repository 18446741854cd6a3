module pnet/bench

go 1.22

require pnet v0.0.0

replace pnet => ../
