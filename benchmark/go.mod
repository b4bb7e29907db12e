module rapidanalytics/benchmark

go 1.23

require rapidanalytics v0.0.0

replace rapidanalytics => ../
