type t = { id : int; src : int; dst : int; bytes : int }
