module strom

go 1.23
