"""Unit tests for the dependency-free FastAPI shim behind the frontend."""

import asyncio
from typing import List, Optional

import pytest
from pydantic import BaseModel, ConfigDict

from repro.frontend.miniapi import (
    FastAPI,
    HTTPException,
    JSONResponse,
    Response,
    _compile_path,
)
from repro.frontend.testing import AsgiClient


class Item(BaseModel):
    model_config = ConfigDict(extra="forbid")

    name: str
    count: int = 1


def build_app():
    app = FastAPI()

    @app.get("/items/{item_id}")
    async def get_item(item_id: int, verbose: bool = False):
        if item_id == 404:
            raise HTTPException(status_code=404, detail="no such item")
        payload = {"item_id": item_id}
        if verbose:
            payload["verbose"] = True
        return payload

    @app.put("/items/{item_id}")
    async def put_item(item_id: int, body: Item):
        return {"item_id": item_id, "name": body.name, "count": body.count}

    @app.get("/files/{path:path}")
    async def get_file(path: str):
        return {"path": path}

    @app.get("/teapot")
    async def teapot():
        raise HTTPException(
            status_code=418, detail="short and stout",
            headers={"Retry-After": "3.5"},
        )

    @app.post("/made", status_code=201)
    def sync_handler():  # plain functions are allowed too
        return {"made": True}

    @app.get("/model")
    async def model_out() -> Item:
        return Item(name="m", count=2)

    @app.get("/search")
    async def search(q: str, limit: int = 10):
        return {"q": q, "limit": limit}

    @app.get("/raw")
    async def raw():
        return Response(b"bytes", status_code=200, media_type="text/plain")

    return app


def call(app, method, path, **kwargs):
    client = AsgiClient(app)
    return asyncio.run(client.request(method, path, **kwargs))


class TestRouting:
    def test_path_param_conversion(self):
        response = call(build_app(), "GET", "/items/7")
        assert response.status_code == 200
        assert response.json() == {"item_id": 7}

    def test_bad_path_param_is_422(self):
        response = call(build_app(), "GET", "/items/seven")
        assert response.status_code == 422
        detail = response.json()["detail"]
        assert detail[0]["loc"] == ["path", "item_id"]

    def test_unknown_route_is_404_with_fastapi_body(self):
        response = call(build_app(), "GET", "/nowhere")
        assert response.status_code == 404
        assert response.json() == {"detail": "Not Found"}

    def test_wrong_method_is_405(self):
        response = call(build_app(), "DELETE", "/items/7")
        assert response.status_code == 405

    def test_path_converter_spans_slashes(self):
        response = call(build_app(), "GET", "/files/a/b/c.txt")
        assert response.json() == {"path": "a/b/c.txt"}

    def test_path_converter_matches_empty(self):
        response = call(build_app(), "GET", "/files/")
        assert response.json() == {"path": ""}

    def test_query_param_binding(self):
        response = call(build_app(), "GET", "/items/7?verbose=true")
        assert response.json() == {"item_id": 7, "verbose": True}

    @pytest.mark.parametrize("raw", ["0", "false", "False"])
    def test_false_spellings_of_a_bool_query_param(self, raw):
        response = call(build_app(), "GET", f"/items/7?verbose={raw}")
        assert response.json() == {"item_id": 7}

    def test_missing_required_query_param_is_422(self):
        response = call(build_app(), "GET", "/search")
        assert response.status_code == 422
        detail = response.json()["detail"]
        assert [entry["loc"] for entry in detail] == [["query", "q"]]

    def test_bad_query_param_is_422(self):
        response = call(build_app(), "GET", "/search?q=x&limit=many")
        assert response.status_code == 422
        detail = response.json()["detail"]
        assert detail[0]["loc"] == ["query", "limit"]
        assert detail[0]["input"] == "many"

    def test_query_param_default_and_override(self):
        assert call(build_app(), "GET", "/search?q=x").json() == {"q": "x", "limit": 10}
        assert call(build_app(), "GET", "/search?q=x&limit=3").json() == {"q": "x", "limit": 3}

    def test_path_param_is_percent_decoded(self):
        response = call(build_app(), "GET", "/files/a%20b/c%2Fd")
        assert response.json() == {"path": "a b/c/d"}

    def test_compile_path_anchors_fully(self):
        pattern = _compile_path("/kv/{key}")
        assert pattern.match("/kv/1")
        assert not pattern.match("/kv/1/extra")
        assert not pattern.match("/prefix/kv/1")


class TestBodies:
    def test_pydantic_body_binding(self):
        response = call(
            build_app(), "PUT", "/items/3", json={"name": "x", "count": 9}
        )
        assert response.json() == {"item_id": 3, "name": "x", "count": 9}

    def test_body_default_applies(self):
        response = call(build_app(), "PUT", "/items/3", json={"name": "x"})
        assert response.json()["count"] == 1

    def test_missing_body_is_422(self):
        response = call(build_app(), "PUT", "/items/3")
        assert response.status_code == 422

    def test_validation_error_shape(self):
        response = call(
            build_app(), "PUT", "/items/3", json={"name": "x", "count": "NaN!"}
        )
        assert response.status_code == 422
        entry = response.json()["detail"][0]
        assert entry["loc"][0] == "body"
        assert "count" in entry["loc"]
        assert "msg" in entry and "type" in entry

    def test_extra_field_is_422_when_forbidden(self):
        response = call(
            build_app(), "PUT", "/items/3", json={"name": "x", "bogus": 1}
        )
        assert response.status_code == 422


class TestResponses:
    def test_http_exception_carries_headers(self):
        response = call(build_app(), "GET", "/teapot")
        assert response.status_code == 418
        assert response.json() == {"detail": "short and stout"}
        assert response.headers.get("retry-after") == "3.5"

    def test_custom_status_code_and_sync_handler(self):
        response = call(build_app(), "POST", "/made")
        assert response.status_code == 201
        assert response.json() == {"made": True}

    def test_pydantic_model_return_is_serialised(self):
        response = call(build_app(), "GET", "/model")
        assert response.json() == {"name": "m", "count": 2}

    def test_model_bytes_come_from_pydantic_and_parse_the_same(self):
        """Models skip ``json.dumps``: nested models, ``None`` fields and
        non-ASCII text must still parse to what ``model_dump`` holds."""
        class Row(BaseModel):
            key: int
            value: Optional[str] = None

        class Table(BaseModel):
            rows: List[Row]
            note: str

        table = Table(rows=[Row(key=1, value="é\u4e16"), Row(key=2)], note='q"\\')
        app = FastAPI()

        @app.post("/table", status_code=201)
        async def make_table() -> Table:
            return table

        response = call(app, "POST", "/table")
        assert response.status_code == 201
        assert response.headers.get("content-type") == "application/json"
        assert response.json() == table.model_dump(mode="json")
        assert response.content == table.model_dump_json().encode()

    def test_raw_response_passthrough(self):
        response = call(build_app(), "GET", "/raw")
        assert response.content == b"bytes"
        assert response.headers.get("content-type") == "text/plain"

    def test_content_length_header_set(self):
        response = call(build_app(), "GET", "/model")
        assert int(response.headers["content-length"]) == len(response.content)

    def test_json_response_helper(self):
        rendered = JSONResponse({"a": 1}, status_code=202)
        assert rendered.status_code == 202
        assert rendered.body == b'{"a": 1}'


class TestLifespan:
    # Only ``http`` scopes are served; no server in the repo sends a
    # ``lifespan`` scope, so the app has no branch for one.
    def test_lifespan_scope_raises(self):
        app = build_app()
        with pytest.raises(RuntimeError):
            asyncio.run(app({"type": "lifespan"}, None, None))

    def test_unknown_scope_type_raises(self):
        app = build_app()
        with pytest.raises(RuntimeError):
            asyncio.run(app({"type": "websocket"}, None, None))


def drive(app, scope, messages):
    """Run one ASGI call on scripted ``receive`` messages; return what was sent."""
    sent = []

    async def receive():
        return messages.pop(0)

    async def send(message):
        sent.append(message)

    asyncio.run(app(scope, receive, send))
    return sent


def http_scope(method, path):
    return {"type": "http", "method": method, "path": path, "query_string": b""}


class TestAsgiMessages:
    def test_body_split_across_messages_is_reassembled(self):
        sent = drive(build_app(), http_scope("PUT", "/items/3"), [
            {"type": "http.request", "body": b'{"name": ', "more_body": True},
            {"type": "http.request", "body": b'"split"}', "more_body": False},
        ])
        assert [message["type"] for message in sent] == [
            "http.response.start", "http.response.body",
        ]
        assert sent[0]["status"] == 200
        assert sent[1]["body"] == b'{"item_id": 3, "name": "split", "count": 1}'

    def test_disconnect_before_the_body_ends_sends_nothing(self):
        sent = drive(build_app(), http_scope("PUT", "/items/3"), [
            {"type": "http.request", "body": b'{"name"', "more_body": True},
            {"type": "http.disconnect"},
        ])
        assert sent == []

    def test_response_headers_are_lowercased_bytes(self):
        sent = drive(build_app(), http_scope("GET", "/teapot"), [
            {"type": "http.request", "body": b""},
        ])
        headers = dict(sent[0]["headers"])
        assert headers[b"retry-after"] == b"3.5"
        assert headers[b"content-type"] == b"application/json"


class TestSurface:
    # One HTTP stack: the shim takes only the arguments the app uses.
    def test_app_takes_no_settings(self):
        with pytest.raises(TypeError):
            FastAPI(title="t")

    def test_route_decorators_take_no_extra_options(self):
        app = FastAPI()
        for decorator in (app.get, app.put, app.post, app.delete):
            with pytest.raises(TypeError):
                decorator("/x", response_model=Item)
