let of_parts parts =
  Stdlib.Digest.to_hex (Stdlib.Digest.string (String.concat "\x00" parts))
