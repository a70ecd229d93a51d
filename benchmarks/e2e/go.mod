module dcert/benchmarks/e2e

go 1.23

require dcert v0.0.0

replace dcert => ../..
