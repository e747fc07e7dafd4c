module tinyevm/bench

go 1.22

require tinyevm v0.0.0

replace tinyevm => ../
