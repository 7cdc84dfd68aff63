module mfdl/benchmark

go 1.22

require mfdl v0.0.0

replace mfdl => ../
