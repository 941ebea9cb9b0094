"""The reference HTTP server the serve workload calibrates against.

``python perfbench/refserver.py DIRECTORY`` writes a fixed JSON document of
about 1 KB into DIRECTORY, prints the port it listens on (127.0.0.1, chosen
by the OS) and serves until it is terminated.  It is built like the
program's warm path, with none of the program's code: asyncio, one request
per connection, and a handler in the default executor that reads the
document from disk, parses it and answers it as JSON.  A round trip to it
therefore slows with the VM by about as much as a serve request does, which
a pure-Python loop does not (see README.md).
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

DOCUMENT = {
    "status": "done",
    "from_cache": True,
    "result": {
        "series": [
            {"label": f"reference {index}", "x": list(range(1, 11)), "y": [step / 7 for step in range(10)]}
            for index in range(2)
        ],
    },
}


def answer(path: Path, body: bytes) -> bytes:
    response = json.loads(path.read_text())
    response["request_bytes"] = len(body)
    return json.dumps(response).encode("utf-8")


async def main(directory: Path) -> None:
    path = directory / "reference.json"
    path.write_text(json.dumps(DOCUMENT))
    loop = asyncio.get_running_loop()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await reader.readexactly(length)
        payload = await loop.run_in_executor(None, answer, path, body)
        writer.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(payload) + payload
        )
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main(Path(sys.argv[1])))
