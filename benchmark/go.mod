module stalecert/benchmark

go 1.23

require stalecert v0.0.0

replace stalecert => ../
